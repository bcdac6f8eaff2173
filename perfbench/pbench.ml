(* The end-to-end benchmark.  One run of one workload:

     pbench run --workload W --seed S --seconds R --trace 0|1 --bin LAYERED

   prints progress on stderr and, as the last line of stdout, one JSON
   object with the outcome counts and the metrics (end-to-end ones
   untraced, per-layer ones traced).  [pbench probe] does a workload's
   set-up and prints the time it became ready; the run spawns it
   several times to measure set-up.  See README.md. *)

module Registry = Layered_analysis.Registry
module Sweep = Layered_analysis.Sweep
module Vq = Layered_analysis.Valence_query
module Pool = Layered_runtime.Pool
module Frontier = Layered_runtime.Frontier
module Report = Layered_core.Report
module P = Layered_serve.Protocol

let now = Unix.gettimeofday
let workloads = [ "claims"; "sweep"; "sweep-parallel"; "serve"; "serve-jobs2" ]
let setup_probes = 21
let round_probes = 5
let probe_gap_s = 0.02
let serve_variants = 8

(* ------------------------------------------------------------------ *)
(* Outcome bookkeeping                                                 *)

let attempted = ref 0
let failed = ref 0
let correct = ref true

let op ok =
  incr attempted;
  if not ok then incr failed

let wrong fmt =
  Printf.ksprintf
    (fun s ->
      correct := false;
      prerr_endline ("check failed: " ^ s))
    fmt

(* Whole rounds until [seconds] would be overrun by one more. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go acc =
    let r0 = now () in
    let r = f () in
    let dt = now () -. r0 in
    Printf.eprintf "round %d: %.3f s\n%!" (List.length acc + 1) dt;
    if now () -. t0 +. dt <= seconds then go (r :: acc) else List.rev (r :: acc)
  in
  go []

type gc = { minor_mwords : float; major : float; heap_top_mb : float }

let gc_around f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_mwords = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
      major = float (g1.Gc.major_collections - g0.Gc.major_collections);
      heap_top_mb = float (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    } )

(* One timed body: wall, CPU of this process, GC and per-op latencies. *)
type body = { wall : float; cpu : float; gc : gc; ops : float list }

let timed_body f =
  let c0 = Util.cpu_self () and t0 = now () in
  let ops, gc = gc_around f in
  { wall = now () -. t0; cpu = Util.cpu_self () -. c0; gc; ops }

(* ------------------------------------------------------------------ *)
(* claims                                                              *)

let claims_round () =
  Registry.run_all
    (List.map
       (fun (e : Registry.experiment) ->
         { e with run = (fun () -> Trace.span ("registry." ^ e.id) e.run) })
       Registry.all)

let check_claims results =
  let ids = List.map (fun (e : Registry.experiment) -> e.id) Registry.all in
  List.iter
    (fun ((e : Registry.experiment), rows) ->
      let bad =
        List.filter
          (fun (r : Report.row) ->
            r.status = Report.Fail
            || (r.status = Report.Info
               && (r.id = "registry" || r.expected = "run to completion")))
          rows
      in
      let ok = rows <> [] && bad = [] in
      op ok;
      List.iter
        (fun (r : Report.row) -> wrong "%s: %s %s: %s" e.id r.claim r.params r.measured)
        bad;
      if rows = [] then wrong "%s returned no rows" e.id)
    results;
  List.iter
    (fun id ->
      if not (List.exists (fun ((_ : Registry.experiment), rows) ->
                  List.exists (fun (r : Report.row) -> r.id = id) rows) results)
      then wrong "no rows from %s" id)
    ids

(* ------------------------------------------------------------------ *)
(* sweep / sweep-parallel                                              *)

let legs_for ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  List.map (fun l -> (Random.State.bits rng, l)) Legs.legs
  |> List.sort compare |> List.map snd

let sweep_round ?pool legs =
  List.map
    (fun (l : Legs.leg) ->
      let t0 = now () in
      let r = Trace.span ("sweep." ^ l.name) (fun () -> Legs.run ?pool l) in
      (l, r, now () -. t0))
    legs

let check_sweep results =
  let enc (r : Sweep.t) = Legs.encode_levels r.levels in
  let plain = Hashtbl.create 8 in
  List.iter
    (fun ((l : Legs.leg), (r : Sweep.t), _) ->
      if l.mode = Legs.Plain then Hashtbl.replace plain l.model (enc r))
    results;
  List.iter
    (fun ((l : Legs.leg), (r : Sweep.t), _) ->
      let reference = Legs.reference ~model:l.model ~n:l.n ~t:l.t ~depth:l.depth in
      let ok =
        r.status = Layered_runtime.Budget.Complete
        && enc r = reference
        && (l.mode = Legs.Plain || Hashtbl.find_opt plain l.model = Some (enc r))
      in
      op ok;
      if not ok then wrong "sweep leg %s: %s, naive BFS %s" l.name (enc r) reference)
    results

(* One traversal per leg over the engine that Sweep builds, with the
   successor, key and canon functions wrapped to time and count them. *)
type traversal = {
  span : float;
  succ : Trace.acc;
  key : Trace.acc;
  canon : Trace.acc;
  claimed : int;  (** states first reached below the root *)
  spill_peak : int;  (** spill bytes on disk, largest seen at a level *)
}

let traverse pool (l : Legs.leg) =
  let (Legs.Engine e) = Legs.engine ~model:l.model ~n:l.n ~t:l.t in
  let succ = Trace.acc () and key = Trace.acc () and canon = Trace.acc () in
  Trace.register ("engine.succ." ^ l.name) succ;
  Trace.register ("engine.key." ^ l.name) key;
  if l.mode = Legs.Sym then Trace.register ("canon." ^ l.name) canon;
  let wsucc = Trace.timed succ ~count:List.length e.succ in
  let wkey = Trace.timed key ~count:(fun _ -> 0) e.key in
  let wcanon =
    match (l.mode, e.canon) with
    | Legs.Sym, Some c -> Some (Trace.timed canon ~count:(fun _ -> 0) c)
    | _ -> None
  in
  let _, _, spill_dir = Legs.durable_dirs () in
  let spill =
    if l.mode = Legs.Durable then
      Some { Frontier.spill_dir; spill_mode = Frontier.Always }
    else None
  in
  let claimed = ref (-1) and spill_peak = ref 0 in
  let f level =
    claimed := !claimed + List.length level;
    if spill <> None then spill_peak := max !spill_peak (Util.dir_bytes spill_dir)
  in
  let t0 = now () in
  let status =
    Trace.span ("frontier." ^ l.name) (fun () ->
        Frontier.iter_levels ?spill ?canon:wcanon pool ~succ:wsucc ~key:wkey
          ~depth:l.depth ~f e.x0)
  in
  let span = now () -. t0 in
  Legs.clean_durable ();
  if status <> Layered_runtime.Budget.Complete then wrong "traversal %s truncated" l.name;
  { span; succ; key; canon; claimed = !claimed; spill_peak = !spill_peak }

(* ------------------------------------------------------------------ *)
(* serve replay                                                        *)

(* The traced round's distinct requests replayed in-process, in the
   order they were sent: repeats are skipped, since the daemon answers
   them from its result cache without computing. *)
let replay (answers : Serve_load.answer list) =
  let cache = Vq.create_cache () in
  List.iter
    (fun (a : Serve_load.answer) ->
      match (a.req.kind, a.req.request) with
      | Serve_load.Repeat, _ -> ()
      | _, P.Classify_valence { model; n; t; depth } ->
          Trace.span ("valence_query." ^ model) (fun () ->
              ignore (Vq.run ~cache ~model ~n ~t ~depth ()))
      | _, P.Sweep { model; n; t; depth } ->
          Trace.span "replay.sweep" (fun () ->
              ignore (Sweep.run ~model ~n ~t ~depth ()))
      | _, P.Run_experiment { id } ->
          Trace.span "replay.experiment" (fun () ->
              match Registry.find id with
              | Some e ->
                  List.iter
                    (fun (_, rows) ->
                      if not (Report.all_pass rows) then wrong "replay %s failed" id)
                    (Registry.run_all [ e ])
              | None -> wrong "replay: unknown experiment %s" id)
      | _ -> ())
    answers

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type prepared =
  | Claims
  | Sweeps of { legs : Legs.leg list; pool : Pool.t option }
  | Serve of { variants : Serve_load.req array array array; jobs : int }

(* Everything a run does before its first timed operation. *)
let prepare ~workload ~seed =
  match workload with
  | "claims" -> Claims
  | "sweep" -> Sweeps { legs = legs_for ~seed; pool = None }
  | "sweep-parallel" ->
      Sweeps { legs = legs_for ~seed; pool = Some (Pool.create ~jobs:2 ()) }
  | "serve" | "serve-jobs2" ->
      (* each round of a run answers its own interleaving of the same
         requests, so one run averages over several schedules *)
      Serve
        {
          variants =
            Array.init serve_variants (fun k ->
                Serve_load.generate ~seed:((seed * serve_variants) + k));
          jobs = (if workload = "serve" then 1 else 2);
        }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Spawn [pbench probe] and time it from spawn to ready. *)
let probe_setup ~workload ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "probe"; "--workload"; workload; "--seed"; string_of_int seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match float_of_string_opt line with
  | Some t1 -> t1 -. t0
  | None -> failwith "setup probe failed"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let per_layer_names =
  List.init 20 (fun i -> Printf.sprintf "registry.E%d_s" (i + 1))
  @ [ "gc.minor_mwords"; "gc.major_collections"; "gc.heap_top_mb" ]
  @ List.map (fun (l : Legs.leg) -> "sweep." ^ l.name ^ "_s") Legs.legs
  @ [
      "engine.succ_s"; "engine.successors"; "engine.key_s"; "frontier.self_s";
      "frontier.dedup_ratio"; "canon.s"; "canon.states_ratio"; "durable.bytes";
      "durable.overhead_s"; "pool.parallelism"; "serve.classify_p50_ms";
      "serve.sweep_p50_ms"; "serve.experiment_p50_ms"; "serve.repeat_p50_ms";
      "serve.compute_s"; "serve.overhead_s";
    ]
  @ List.map (fun m -> "valence_query." ^ m ^ "_s") Sweep.models
  @ [ "trace.overhead_pct" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" then "ms"
  else if ends "_s" || name = "canon.s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_pct" then "%"
  else if ends "_ratio" || name = "pool.parallelism" then "ratio"
  else if name = "durable.bytes" then "bytes"
  else if name = "gc.minor_mwords" then "Mwords"
  else "count"

(* Every per-layer metric; those a workload does not exercise read 0. *)
let per_layer found =
  List.map
    (fun name ->
      Util.m name (unit_of name)
        (Option.value ~default:0. (List.assoc_opt name found)))
    per_layer_names

(* Each figure is taken per round, and the run reports the median over
   its rounds; a round is [(wall, cpu, op latencies)].  With [~pooled]
   the request percentiles are over every request of the run instead:
   on [serve] the median falls where latency climbs steeply with rank,
   and pooling steadies it.  On the sweeps, whose eight legs per round
   differ widely, a pooled p95 would be an upper order statistic of the
   slowest leg and less steady than its median over rounds. *)
let end_to_end ?(pooled = false) ~setup ~rss rounds =
  let med f = Util.median (List.map f rounds) in
  let pct f =
    if pooled then f (List.concat_map (fun (_, _, l) -> l) rounds) *. 1e3
    else med (fun (_, _, l) -> f l *. 1e3)
  in
  [
    Util.m "setup_s" "s" setup;
    Util.m "wall_s" "s" (med (fun (w, _, _) -> w));
    Util.m "cpu_s" "s" (med (fun (_, c, _) -> c));
    Util.m "peak_rss_mb" "MB" rss;
    Util.m "req_p50_ms" "ms" (pct Util.median);
    Util.m "req_p95_ms" "ms" (pct (Util.quantile 0.95));
    Util.m "req_per_s" "1/s" (med (fun (w, _, l) -> float (List.length l) /. w));
  ]

let self_rss () = Util.peak_rss_mb "self"

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(* The timed rounds, with set-up sampled around them: [setup_probes]
   samples split before and after the rounds, and [round_probes] more
   before each round, so that the samples span the run and no one burst
   of machine noise skews them all.  Each sample follows a short pause:
   back-to-back spawns overlap the previous probe's exit and read much
   noisier. *)
let sampled_rounds ~seconds probe body =
  let samples = ref [] in
  let take k =
    for _ = 1 to k do
      Unix.sleepf probe_gap_s;
      samples := probe () :: !samples
    done
  in
  take (setup_probes / 2);
  let r =
    rounds ~seconds (fun () ->
        take round_probes;
        body ())
  in
  take (setup_probes - (setup_probes / 2));
  (!samples, r)

(* A traced run alternates an untraced and a traced round of the same
   operations ([round k] for pair k), in whole pairs while one more
   fits in [seconds], at least one.  Tracing stays on afterwards. *)
let traced_pairs ~seconds round =
  let next = ref 0 in
  rounds ~seconds (fun () ->
      let k = !next in
      incr next;
      Trace.set_enabled false;
      let plain = round k in
      Trace.set_enabled true;
      (plain, round k))

(* Tracing's cost: the median over the pairs of the traced round's
   extra [time], in percent of the untraced round's. *)
let overhead_pct pairs time =
  100. *. Util.median (List.map (fun (p, t) -> (time t -. time p) /. time p) pairs)

(* A span's total per traced round. *)
let per_round pairs name = Trace.total name /. float (List.length pairs)

let run_claims ~workload ~seed ~seconds ~traced =
  let claims_body () =
    let res = ref [] in
    let b =
      timed_body (fun () ->
          res := claims_round ();
          [])
    in
    (b, !res)
  in
  if not traced then begin
    let samples, bodies =
      sampled_rounds ~seconds (fun () -> probe_setup ~workload ~seed) claims_body
    in
    let rss = self_rss () in
    List.iter (fun (_, res) -> check_claims res) bodies;
    (* the whole suite is the request a user of [layered all] waits on;
       the uneven per-experiment times go to the per-layer figures *)
    end_to_end ~setup:(Util.median samples) ~rss (List.map (fun (b, _) -> (b.wall, b.cpu, [ b.wall ])) bodies)
  end
  else begin
    let pairs = traced_pairs ~seconds (fun _ -> claims_body ()) in
    List.iter (fun ((_, p), (_, t)) -> check_claims p; check_claims t) pairs;
    let pairs = List.map (fun ((p, _), (t, _)) -> (p, t)) pairs in
    let plain = fst (List.hd pairs) in
    per_layer
      ([
         ("gc.minor_mwords", plain.gc.minor_mwords);
         ("gc.major_collections", plain.gc.major);
         ("gc.heap_top_mb", plain.gc.heap_top_mb);
         ("pool.parallelism", plain.cpu /. plain.wall);
         ("trace.overhead_pct", overhead_pct pairs (fun b -> b.wall));
       ]
      @ List.map
          (fun (e : Registry.experiment) ->
            ("registry." ^ e.id ^ "_s", per_round pairs ("registry." ^ e.id)))
          Registry.all)
  end

let run_sweep ~workload ~seed ~seconds ~traced legs pool =
  let leg_round () =
    let res = ref [] in
    let b =
      timed_body (fun () ->
          res := sweep_round ?pool legs;
          List.map (fun (_, _, dt) -> dt) !res)
    in
    (* the durable leg's files are measured and removed outside the
       timed body, so the benchmark's own I/O is not in its figures *)
    let bytes = Legs.durable_bytes () in
    Legs.clean_durable ();
    (b, !res, bytes)
  in
  if not traced then begin
    let samples, bodies =
      sampled_rounds ~seconds (fun () -> probe_setup ~workload ~seed) leg_round
    in
    let rss = self_rss () in
    List.iter (fun (_, res, _) -> check_sweep res) bodies;
    end_to_end ~setup:(Util.median samples) ~rss (List.map (fun (b, _, _) -> (b.wall, b.cpu, b.ops)) bodies)
  end
  else begin
    let pairs = traced_pairs ~seconds (fun _ -> leg_round ()) in
    List.iter (fun ((_, p, _), (_, t, _)) -> check_sweep p; check_sweep t) pairs;
    let (_, _, bytes), _ = List.hd pairs in
    let pairs = List.map (fun ((p, _, _), (t, _, _)) -> (p, t)) pairs in
    let plain = fst (List.hd pairs) in
    let tpool = match pool with Some p -> p | None -> Pool.create ~jobs:1 () in
    let jobs = float (Pool.jobs tpool) in
    let trs = List.map (fun l -> (l, traverse tpool l)) legs in
    let sumf f = Util.sum (List.map (fun (_, tr) -> f tr) trs) in
    let of_leg name = List.assoc (List.find (fun (l : Legs.leg) -> l.name = name) legs) trs in
    let plain_trs = List.filter (fun ((l : Legs.leg), _) -> l.mode <> Legs.Sym) trs in
    let sym = of_leg "iis-sym" and iis = of_leg "iis" in
    let spill_peak = (of_leg "mp-durable").spill_peak in
    per_layer
      ([
         ("gc.minor_mwords", plain.gc.minor_mwords);
         ("gc.major_collections", plain.gc.major);
         ("gc.heap_top_mb", plain.gc.heap_top_mb);
         ("engine.succ_s", sumf (fun tr -> Trace.seconds tr.succ));
         ("engine.successors", sumf (fun tr -> float (Trace.items tr.succ)));
         ("engine.key_s", sumf (fun tr -> Trace.seconds tr.key));
         ( "frontier.self_s",
           sumf (fun tr ->
               (jobs *. tr.span) -. Trace.seconds tr.succ -. Trace.seconds tr.key
               -. Trace.seconds tr.canon) );
         ( "frontier.dedup_ratio",
           float (List.fold_left (fun a (_, tr) -> a + tr.claimed) 0 plain_trs)
           /. float (List.fold_left (fun a (_, tr) -> a + Trace.items tr.succ) 0 plain_trs) );
         ("canon.s", Trace.seconds sym.canon);
         ("canon.states_ratio", float (Trace.calls sym.succ) /. float (Trace.calls iis.succ));
         ("durable.bytes", float (bytes + spill_peak));
         ("durable.overhead_s", per_round pairs "sweep.mp-durable" -. per_round pairs "sweep.mp");
         ("pool.parallelism", plain.cpu /. plain.wall);
         ("trace.overhead_pct", overhead_pct pairs (fun b -> Util.sum b.ops));
       ]
      @ List.map
          (fun (l : Legs.leg) -> ("sweep." ^ l.name ^ "_s", per_round pairs ("sweep." ^ l.name)))
          legs)
  end

let run_serve ~bin ~seconds ~traced ~jobs variants =
  let serve_round k = Serve_load.round ~bin ~jobs variants.(k mod Array.length variants) in
  let check_rounds rs =
    let f, ok = Serve_load.check (List.concat_map (fun (r : Serve_load.round) -> r.answers) rs) in
    attempted := !attempted + List.fold_left (fun a (r : Serve_load.round) -> a + List.length r.answers) 0 rs;
    failed := !failed + f;
    if not ok then correct := false
  in
  let lat_of ?kind rs =
    List.concat_map
      (fun (r : Serve_load.round) ->
        List.filter_map
          (fun (a : Serve_load.answer) ->
            match kind with
            | Some k when a.req.kind <> k -> None
            | _ -> Some a.latency)
          r.answers)
      rs
  in
  if not traced then begin
    let next = ref (-1) in
    let samples, rs =
      sampled_rounds ~seconds
        (fun () -> Serve_load.probe ~bin ~jobs)
        (fun () ->
          incr next;
          serve_round !next)
    in
    check_rounds rs;
    end_to_end ~pooled:true
      ~setup:(Util.median (samples @ List.map (fun (r : Serve_load.round) -> r.setup) rs))
      ~rss:(Util.median (List.map (fun (r : Serve_load.round) -> r.rss) rs))
      (List.map (fun (r : Serve_load.round) -> (r.wall, r.cpu, lat_of [ r ])) rs)
  end
  else begin
    (* both rounds of a pair answer the same schedule *)
    let pairs = traced_pairs ~seconds serve_round in
    let rs = List.concat_map (fun (p, t) -> [ p; t ]) pairs in
    check_rounds rs;
    let plain = fst (List.hd pairs) in
    let (), gc = gc_around (fun () -> replay plain.answers) in
    let compute =
      List.fold_left
        (fun a s ->
          if String.starts_with ~prefix:"valence_query." s.Trace.name
             || String.starts_with ~prefix:"replay." s.Trace.name
          then a +. Trace.duration s
          else a)
        0. !Trace.spans
    in
    let p50 kind = Util.median (lat_of ~kind rs) *. 1e3 in
    per_layer
      ([
         ("gc.minor_mwords", gc.minor_mwords);
         ("gc.major_collections", gc.major);
         ("gc.heap_top_mb", gc.heap_top_mb);
         ("pool.parallelism", plain.cpu /. plain.wall);
         ("serve.classify_p50_ms", p50 Serve_load.Classify);
         ("serve.sweep_p50_ms", p50 Serve_load.Sweep);
         ("serve.experiment_p50_ms", p50 Serve_load.Experiment);
         ("serve.repeat_p50_ms", p50 Serve_load.Repeat);
         ("serve.compute_s", compute);
         ("serve.overhead_s", plain.wall -. compute);
         ("trace.overhead_pct", overhead_pct pairs (fun (r : Serve_load.round) -> r.wall));
       ]
      @ List.map
          (fun m -> ("valence_query." ^ m ^ "_s", Trace.total ("valence_query." ^ m)))
          Sweep.models)
  end

let trace_file ~workload ~seed =
  Util.mkdir_p Util.work_dir;
  Filename.concat Util.work_dir (Printf.sprintf "trace-%s-%d.json" workload seed)

let run ~workload ~seed ~seconds ~traced ~bin =
  let prepared = prepare ~workload ~seed in
  let metrics =
    match prepared with
    | Claims -> run_claims ~workload ~seed ~seconds ~traced
    | Sweeps { legs; pool } ->
        let m = run_sweep ~workload ~seed ~seconds ~traced legs pool in
        Option.iter Pool.shutdown pool;
        m
    | Serve { variants; jobs } -> run_serve ~bin ~seconds ~traced ~jobs variants
  in
  if traced then begin
    let file = trace_file ~workload ~seed in
    Trace.write_file file;
    Printf.eprintf "trace written to %s\n%!" file
  end;
  List.iter
    (fun (mt : Util.metric) -> Printf.eprintf "  %-26s %14.6f %s\n" mt.name mt.value mt.unit_)
    metrics;
  Util.print_result ~correct:!correct ~attempted:!attempted ~failed:!failed metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let usage () =
    prerr_endline
      "usage: pbench run --workload W --seed N --seconds S --trace 0|1 --bin LAYERED\n\
      \       pbench probe --workload W --seed N";
    exit 2
  in
  match args with
  | cmd :: rest -> (
      let o = try opts [] rest with Failure _ -> usage () in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let workload = get "--workload" and seed = int_of_string (get "--seed") in
      if not (List.mem workload workloads) then usage ();
      match cmd with
      | "probe" ->
          let p = prepare ~workload ~seed in
          Printf.printf "%.6f\n%!" (now ());
          (match p with Sweeps { pool = Some pool; _ } -> Pool.shutdown pool | _ -> ())
      | "run" ->
          run ~workload ~seed
            ~seconds:(float_of_string (get "--seconds"))
            ~traced:(get "--trace" = "1") ~bin:(get "--bin")
      | _ -> usage ())
  | [] -> usage ()
