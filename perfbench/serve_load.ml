(* The [serve] workload: a seeded request mix, a fresh daemon per round,
   two connections in a closed loop, and the checks on every answer. *)

module P = Layered_serve.Protocol
open Layered_core

type kind = Classify | Sweep | Experiment | Repeat

type req = {
  kind : kind;
  request : P.request;
  line : string;  (** the request encoded without an id: its identity *)
}

let kind_name = function
  | Classify -> "classify"
  | Sweep -> "sweep"
  | Experiment -> "experiment"
  | Repeat -> "repeat"

(* The classify grid: per (model, n, t) an ascending run of depths, the
   way a user deepens one query.  Keys costing more than a few hundred
   ms one-shot are left out (see README).  [est] is a rough cost in ms,
   used only to balance the two connections. *)
let groups =
  [
    ("mobile", 2, 1, 8, 20); ("mobile", 3, 1, 8, 40); ("mobile", 4, 2, 8, 60);
    ("mobile", 5, 1, 6, 60); ("mobile", 6, 2, 4, 150);
    ("sync", 2, 1, 8, 10); ("sync", 3, 1, 8, 10); ("sync", 4, 2, 6, 40);
    ("sync", 5, 2, 6, 70); ("sync", 6, 3, 4, 190);
    ("sm", 2, 1, 8, 20); ("sm", 3, 1, 8, 50); ("sm", 3, 2, 8, 90);
    ("sm", 4, 1, 6, 170); ("sm", 4, 2, 4, 380);
    ("mp", 2, 1, 8, 30); ("mp", 2, 3, 8, 100); ("mp", 3, 0, 6, 90);
    ("mp", 3, 1, 4, 300);
    ("smp", 2, 1, 8, 80); ("smp", 3, 1, 5, 340); ("smp", 3, 2, 4, 400);
    ("smp", 4, 1, 3, 480); ("smp", 4, 2, 2, 90);
    ("iis", 2, 1, 8, 10); ("iis", 3, 1, 6, 10); ("iis", 4, 1, 5, 50);
    ("iis", 4, 2, 5, 70); ("iis", 5, 1, 3, 240);
  ]

let sweeps =
  [
    ("mobile", 4, 1, 4); ("sync", 4, 2, 3); ("sm", 3, 2, 4);
    ("mp", 3, 1, 3); ("smp", 3, 1, 3); ("iis", 4, 1, 3);
  ]

(* Experiments that run in tens of ms. *)
let experiments = [ "E4"; "E10"; "E13"; "E17" ]

let mk kind request = { kind; request; line = P.encode_request request }

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* Two request sequences, one per connection.  The set of distinct
   requests is fixed; the seed decides the split of the extras, the
   interleaving, and which earlier request each repeat copies. *)
let generate ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let load = [| 0; 0 |] and mine = [| []; [] |] in
  (* longest-first onto the lighter connection: equal work per seed *)
  shuffle rng groups
  |> List.stable_sort (fun (_, _, _, _, a) (_, _, _, _, b) -> compare b a)
  |> List.iter (fun (model, n, t, dmax, est) ->
         let c = if load.(0) <= load.(1) then 0 else 1 in
         load.(c) <- load.(c) + est;
         let seq =
           List.init (dmax + 1) (fun depth ->
               mk Classify (P.Classify_valence { model; n; t; depth }))
         in
         mine.(c) <- seq :: mine.(c));
  let extras =
    List.map
      (fun (model, n, t, depth) -> mk Sweep (P.Sweep { model; n; t; depth }))
      sweeps
    @ List.map (fun id -> mk Experiment (P.Run_experiment { id })) experiments
    |> shuffle rng
  in
  List.iteri (fun i x -> let c = i mod 2 in mine.(c) <- [ x ] :: mine.(c)) extras;
  Array.map
    (fun runs ->
      (* seeded interleaving, each run keeping its own order *)
      let runs = Array.of_list (List.map Array.of_list runs) in
      let pos = Array.make (Array.length runs) 0 in
      let remaining = ref (Array.fold_left (fun a r -> a + Array.length r) 0 runs) in
      let distinct = ref [] in
      while !remaining > 0 do
        let k = Random.State.int rng !remaining in
        let acc = ref 0 and chosen = ref (-1) in
        Array.iteri
          (fun i r ->
            let left = Array.length r - pos.(i) in
            if !chosen < 0 && k < !acc + left then chosen := i;
            acc := !acc + left)
          runs;
        let i = !chosen in
        distinct := runs.(i).(pos.(i)) :: !distinct;
        pos.(i) <- pos.(i) + 1;
        decr remaining
      done;
      let distinct = Array.of_list (List.rev !distinct) in
      (* half as many repeats as distinct requests: a third of the mix *)
      let nd = Array.length distinct in
      let nr = nd / 2 in
      let out = ref [] and d = ref 0 and r = ref 0 in
      while !d < nd || !r < nr do
        let take_repeat =
          !d > 0 && !r < nr && Random.State.int rng (nd - !d + nr - !r) >= nd - !d
        in
        if take_repeat then begin
          let src = distinct.(Random.State.int rng !d) in
          out := { src with kind = Repeat } :: !out;
          incr r
        end
        else begin
          out := distinct.(!d) :: !out;
          incr d
        end
      done;
      Array.of_list (List.rev !out))
    mine

(* ------------------------------------------------------------------ *)
(* The daemon and its connections                                      *)

type daemon = { pid : int; sock : string; cpu0 : float }

let daemon_count = ref 0
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) !live)

let spawn ~bin ~jobs =
  incr daemon_count;
  Util.mkdir_p Util.work_dir;
  let sock =
    Filename.concat Util.work_dir
      (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !daemon_count)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let cpu0 = Util.cpu_children () in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--socket"; sock; "--jobs"; string_of_int jobs |]
      null null null
  in
  Unix.close null;
  live := pid :: !live;
  { pid; sock; cpu0 }

let connect d =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable lines : string list;  (** complete lines not yet consumed *)
}

let chunk = Bytes.create 65536

(* Read until one complete line is buffered; false on EOF. *)
let fill c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then false
  else begin
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    match String.rindex_opt s '\n' with
    | None -> true
    | Some i ->
        let complete = String.sub s 0 i in
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        c.lines <- c.lines @ String.split_on_char '\n' complete;
        true
  end

let rec read_line c =
  match c.lines with
  | l :: rest ->
      c.lines <- rest;
      l
  | [] -> if fill c then read_line c else failwith "daemon closed the connection"

let send c ~id req = write_all c.fd (P.encode_request ~id req ^ "\n") 0

(* Stop the daemon and reap it; returns (cpu seconds, peak RSS MB). *)
let stop d conns =
  let rss = Util.peak_rss_mb (string_of_int d.pid) in
  (match conns with
  | c :: rest ->
      List.iter (fun c -> Unix.close c.fd) rest;
      (try
         send c ~id:0 P.Shutdown;
         ignore (read_line c)
       with _ -> ());
      Unix.close c.fd
  | [] -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live;
  (try Sys.remove d.sock with Sys_error _ -> ());
  (Util.cpu_children () -. d.cpu0, rss)

(* Daemon spawn until both connections have an answered request. *)
let start ~bin ~jobs =
  let t0 = Unix.gettimeofday () in
  let d = spawn ~bin ~jobs in
  let conns =
    List.map
      (fun _ -> { fd = connect d; buf = Buffer.create 4096; lines = [] })
      [ 0; 1 ]
  in
  List.iteri (fun i c -> send c ~id:(1_000_000 + i) P.Stats_query) conns;
  List.iter (fun c -> ignore (read_line c)) conns;
  (d, conns, Unix.gettimeofday () -. t0)

type answer = {
  req : req;
  latency : float;
  response : string;
  t_sent : float;
}

type round = {
  setup : float;
  wall : float;  (** first request sent to last answer read *)
  cpu : float;  (** the daemon's user + system seconds *)
  rss : float;
  answers : answer list;  (** in the order they were sent *)
}

(* One round: a fresh daemon answers both sequences in a closed loop. *)
let round ~bin ~jobs (seqs : req array array) =
  let d, conns, setup = start ~bin ~jobs in
  let conns = Array.of_list conns in
  let next = [| 0; 0 |] and sent_at = [| 0.; 0. |] in
  let answers = ref [] in
  let send_next i =
    let k = next.(i) in
    if k < Array.length seqs.(i) then begin
      sent_at.(i) <- Unix.gettimeofday ();
      send conns.(i) ~id:((i * 100_000) + k) seqs.(i).(k).request
    end
  in
  let t0 = Unix.gettimeofday () in
  send_next 0;
  send_next 1;
  let busy () = List.filter (fun i -> next.(i) < Array.length seqs.(i)) [ 0; 1 ] in
  let rec loop () =
    match busy () with
    | [] -> ()
    | open_ ->
        let ready =
          if List.exists (fun i -> conns.(i).lines <> []) open_ then []
          else begin
            let fds = List.map (fun i -> conns.(i).fd) open_ in
            let r, _, _ = Unix.select fds [] [] 60. in
            if r = [] then failwith "daemon stopped answering";
            r
          end
        in
        List.iter
          (fun i ->
            let c = conns.(i) in
            if c.lines = [] && List.mem c.fd ready && not (fill c) then
              failwith "daemon closed the connection";
            match c.lines with
            | [] -> ()
            | line :: rest ->
                c.lines <- rest;
                let t1 = Unix.gettimeofday () in
                let req = seqs.(i).(next.(i)) in
                Trace.record ("serve." ^ kind_name req.kind) sent_at.(i) t1;
                answers :=
                  { req; latency = t1 -. sent_at.(i); response = line; t_sent = sent_at.(i) }
                  :: !answers;
                next.(i) <- next.(i) + 1;
                send_next i)
          open_;
        loop ()
  in
  loop ();
  let wall = Unix.gettimeofday () -. t0 in
  let cpu, rss = stop d (Array.to_list conns) in
  let answers =
    List.sort (fun a b -> compare a.t_sent b.t_sent) !answers
  in
  { setup; wall; cpu; rss; answers }

let probe ~bin ~jobs =
  let d, conns, setup = start ~bin ~jobs in
  ignore (stop d conns);
  setup

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let engines = Hashtbl.create 16

let uniform_keys ~model ~n ~t =
  match Hashtbl.find_opt engines (model, n, t) with
  | Some k -> k
  | None ->
      let (Legs.Engine e) = Legs.engine ~model ~n ~t in
      let k =
        ( e.initial_key (Array.make n Value.zero),
          e.initial_key (Array.make n Value.one) )
      in
      Hashtbl.replace engines (model, n, t) k;
      k

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* Verdict lines of a classify answer, checked for shape and validity. *)
let check_classify ~model ~n ~t ~depth output =
  match String.split_on_char '\n' output |> List.filter (( <> ) "") with
  | header :: rest -> (
      let expect_header = Printf.sprintf "model=%s n=%d t=%d depth=%d" model n t depth in
      if header <> expect_header then Error ("header " ^ header)
      else
        match List.rev rest with
        | summary :: rev_lines ->
            let lines = List.rev rev_lines in
            let states = 1 lsl n in
            let verdicts =
              List.filter_map
                (fun l ->
                  match words l with [ k; v ] -> Some (k, v) | _ -> None)
                lines
            in
            let z, o = uniform_keys ~model ~n ~t in
            let verdict_of k = List.assoc_opt k verdicts in
            if List.length lines <> states || List.length verdicts <> states then
              Error (Printf.sprintf "%d verdict lines, expected %d" (List.length lines) states)
            else if not (String.starts_with ~prefix:(Printf.sprintf "%d states:" states) summary)
            then Error ("summary " ^ summary)
            else if
              not (List.mem (verdict_of z) [ Some "0-univalent"; Some "unknown" ])
            then Error "all-0 input state is bivalent or 1-univalent"
            else if
              not (List.mem (verdict_of o) [ Some "1-univalent"; Some "unknown" ])
            then Error "all-1 input state is bivalent or 0-univalent"
            else Ok verdicts
        | [] -> Error "empty answer")
  | [] -> Error "empty answer"

let check_sweep ~model ~n ~t ~depth output =
  let rows =
    String.split_on_char '\n' output
    |> List.filter_map (fun l ->
           match List.map int_of_string_opt (words l) with
           | [ Some d; Some r; Some mn; Some mx ] ->
               Some { Layered_analysis.Sweep.depth = d; reachable = r; layer_min = mn; layer_max = mx }
           | _ -> None)
  in
  if Legs.encode_levels rows = Legs.reference ~model ~n ~t ~depth then Ok ()
  else Error "levels differ from the naive BFS"

(* Checks every answer of a run; returns the number of failed requests
   and whether every check passed on the requests that were answered. *)
let check (answers : answer list) =
  let first = Hashtbl.create 512 in
  let verdicts = Hashtbl.create 512 in
  let failed = ref 0 and wrong = ref false in
  let fail ~wrong:w a msg =
    incr failed;
    if w then wrong := true;
    Printf.eprintf "serve: %s: %s\n%!" a.req.line msg
  in
  List.iter
    (fun a ->
      match P.decode_response a.response with
      | Ok (P.Resp_ok { exit_code = 0; output; _ }) -> (
          let result =
            match Hashtbl.find_opt first a.req.line with
            | Some o -> if o = output then Ok () else Error "differs from its first answer"
            | None -> (
                Hashtbl.replace first a.req.line output;
                match a.req.request with
                | P.Classify_valence { model; n; t; depth } -> (
                    match check_classify ~model ~n ~t ~depth output with
                    | Ok vs ->
                        List.iter
                          (fun (k, v) ->
                            Hashtbl.add verdicts (model, n, t, k) (depth, v))
                          vs;
                        Ok ()
                    | Error e -> Error e)
                | P.Sweep { model; n; t; depth } -> check_sweep ~model ~n ~t ~depth output
                | P.Run_experiment _ ->
                    if List.mem "FAIL" (words (String.map (function '\n' -> ' ' | c -> c) output))
                    then Error "FAIL row"
                    else Ok ()
                | _ -> Ok ())
          in
          match result with Ok () -> () | Error e -> fail ~wrong:true a e)
      | Ok (P.Resp_ok { exit_code; _ }) ->
          fail ~wrong:(exit_code = 1) a (Printf.sprintf "exit %d" exit_code)
      | Ok (P.Resp_error { message; _ }) -> fail ~wrong:false a ("error: " ^ message)
      | Ok (P.Resp_overloaded _) -> fail ~wrong:false a "overloaded"
      | Error e -> fail ~wrong:true a ("undecodable: " ^ e))
    answers;
  (* an exact verdict never changes at a larger depth *)
  let by_state = Hashtbl.create 512 in
  Hashtbl.iter
    (fun k dv ->
      Hashtbl.replace by_state k (dv :: Option.value ~default:[] (Hashtbl.find_opt by_state k)))
    verdicts;
  Hashtbl.iter
    (fun (model, n, t, key) dvs ->
      let dvs = List.sort_uniq compare dvs in
      List.iter
        (fun (d1, v1) ->
          if v1 <> "unknown" then
            List.iter
              (fun (d2, v2) ->
                if d2 > d1 && v2 <> v1 then begin
                  wrong := true;
                  incr failed;
                  Printf.eprintf "serve: %s n=%d t=%d %s: %s at depth %d, %s at %d\n%!"
                    model n t key v1 d1 v2 d2
                end)
              dvs)
        dvs)
    by_state;
  (!failed, not !wrong)
