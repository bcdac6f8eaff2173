(* The six substrates' engines, built exactly as [Sweep] builds them,
   behind one existential type so the benchmark can wrap their public
   successor and key functions; the naive reference BFS; and the sweep
   legs of the [sweep] and [sweep-parallel] workloads. *)

open Layered_core
module Sweep = Layered_analysis.Sweep
module Frontier = Layered_runtime.Frontier

type engine =
  | Engine : {
      succ : 'a -> 'a list;
      key : 'a -> string;
      x0 : 'a;  (** the mixed initial state [Sweep] starts from *)
      initial_key : Value.t array -> string;
      canon : ('a -> string) option;
          (** orbit key under the sweep's role partition; iis only *)
    }
      -> engine

(* [Sweep]'s documented start state: process 1 gets 0, the rest 1. *)
let mixed_inputs n =
  Array.init n (fun i -> if i = 0 then Value.zero else Value.one)

let engine ~model ~n ~t =
  let inputs = mixed_inputs n in
  match model with
  | "mobile" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_sync.Engine.Make (P) in
      Engine
        {
          succ = E.s1 ~record_failures:false;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = None;
        }
  | "sync" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_sync.Engine.Make (P) in
      Engine
        {
          succ = E.st ~t;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = None;
        }
  | "sm" ->
      let module P = (val Layered_protocols.Sm_voting.make ~horizon:(t + 1)) in
      let module E = Layered_async_sm.Engine.Make (P) in
      Engine
        {
          succ = E.srw;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = None;
        }
  | "mp" ->
      let module P = (val Layered_protocols.Mp_floodset.make ~horizon:(t + 1)) in
      let module E = Layered_async_mp.Engine.Make (P) in
      Engine
        {
          succ = E.sper;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = None;
        }
  | "smp" ->
      let module P = (val Layered_protocols.Sync_floodset.make ~t) in
      let module E = Layered_async_mp.Synchronic.Make (P) in
      Engine
        {
          succ = E.smp;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = None;
        }
  | "iis" ->
      let module P = (val Layered_protocols.Iis_voting.make ~horizon:(t + 1)) in
      let module E = Layered_iis.Engine.Make (P) in
      let roles = Canon.roles_of ~eq:Value.equal inputs in
      Engine
        {
          succ = E.layer;
          key = E.key;
          x0 = E.initial ~inputs;
          initial_key = (fun inputs -> E.key (E.initial ~inputs));
          canon = Some (fun x -> (E.canon ~roles x).Intern.cmeta.Intern.key);
        }
  | other -> invalid_arg ("unknown model " ^ other)

(* ------------------------------------------------------------------ *)
(* Naive reference BFS                                                 *)

(* Per-level figures of the sweep from the engine's successor and key
   functions alone: a plain Hashtbl of seen keys, no interning, no
   frontier, no quotient.  Row [d] counts the states first reached at
   depth [d] (cumulatively) and the min/max successor-list length over
   them, 0/0 for an empty level — the figures [Sweep.run] reports. *)
let naive (Engine e) ~depth : Sweep.level list =
  let seen = Hashtbl.create 4096 in
  Hashtbl.replace seen (e.key e.x0) ();
  let rec go d level reachable acc =
    let reachable = reachable + List.length level in
    let mn = ref max_int and mx = ref 0 and next = ref [] in
    List.iter
      (fun x ->
        let s = e.succ x in
        let k = List.length s in
        mn := min !mn k;
        mx := max !mx k;
        if d < depth then
          List.iter
            (fun y ->
              let ky = e.key y in
              if not (Hashtbl.mem seen ky) then begin
                Hashtbl.replace seen ky ();
                next := y :: !next
              end)
            s)
      level;
    let row =
      {
        Sweep.depth = d;
        reachable;
        layer_min = (if level = [] then 0 else !mn);
        layer_max = !mx;
      }
    in
    if d = depth then List.rev (row :: acc)
    else go (d + 1) (List.rev !next) reachable (row :: acc)
  in
  go 0 [ e.x0 ] 0 []

let encode_levels levels =
  String.concat ";"
    (List.map
       (fun (l : Sweep.level) ->
         Printf.sprintf "%d,%d,%d,%d" l.depth l.reachable l.layer_min l.layer_max)
       levels)

(* The reference is cached on disk per build of this executable, so
   only the first run in a checkout pays for it. *)
let cache_dir =
  lazy
    (Filename.concat Util.work_dir
       ("naive-" ^ Digest.to_hex (Digest.file Sys.executable_name)))

let reference ~model ~n ~t ~depth =
  let dir = Lazy.force cache_dir in
  Util.mkdir_p dir;
  let file =
    Filename.concat dir (Printf.sprintf "%s-%d-%d-%d" model n t depth)
  in
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> s
  | exception Sys_error _ ->
      let s = encode_levels (naive (engine ~model ~n ~t) ~depth) in
      let tmp = file ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
      Sys.rename tmp file;
      s

(* ------------------------------------------------------------------ *)
(* Sweep legs                                                          *)

type mode = Plain | Sym | Durable

type leg = {
  name : string;
  model : string;
  n : int;
  t : int;
  depth : int;
  mode : mode;
}

let leg name model n t depth mode = { name; model; n; t; depth; mode }

(* One largest-feasible sweep per substrate (each well under a few
   seconds at jobs 1), then the iis sweep under the symmetry quotient
   and the mp sweep with a checkpoint every level and forced spill. *)
let legs =
  [
    leg "mobile" "mobile" 12 4 8 Plain;
    leg "sync" "sync" 9 4 5 Plain;
    leg "sm" "sm" 6 3 5 Plain;
    leg "mp" "mp" 3 3 7 Plain;
    leg "smp" "smp" 4 2 3 Plain;
    leg "iis" "iis" 6 1 2 Plain;
    leg "iis-sym" "iis" 6 1 2 Sym;
    leg "mp-durable" "mp" 3 3 7 Durable;
  ]

let durable_dirs () =
  let base = Filename.concat Util.work_dir (Printf.sprintf "durable-%d" (Unix.getpid ())) in
  (base, Filename.concat base "ckpt", Filename.concat base "spill")

let with_symmetry on f =
  Canon.set_enabled on;
  Fun.protect ~finally:(fun () -> Canon.set_enabled false) f

(* Run one leg through the program's public sweep entry point. *)
let run ?pool l =
  let sweep ?checkpoint ?spill () =
    Sweep.run ?pool ?checkpoint ?spill ~model:l.model ~n:l.n ~t:l.t ~depth:l.depth ()
  in
  match l.mode with
  | Plain -> sweep ()
  | Sym -> with_symmetry true sweep
  | Durable ->
      let _, ckpt, spill = durable_dirs () in
      sweep
        ~checkpoint:{ Sweep.dir = ckpt; every = 1; resume = false }
        ~spill:{ Frontier.spill_dir = spill; spill_mode = Frontier.Always }
        ()

let clean_durable () =
  let base, _, _ = durable_dirs () in
  Util.rm_rf base

let durable_bytes () =
  let _, ckpt, _ = durable_dirs () in
  Util.dir_bytes ckpt
