(* In-memory tracing for the benchmark's traced runs.

   Spans are recorded by the benchmark around each call it makes into a
   layer of the program (an experiment, a sweep leg, a frontier
   traversal, a daemon request); the program itself is not
   instrumented.  Hot functions called from pool domains (successor,
   key and canon functions) are too frequent for one span per call, so
   they feed atomic time/count accumulators instead.  Nothing is
   recorded while tracing is switched off: a disarmed [span] is one
   boolean test. *)

let now = Unix.gettimeofday
let enabled = ref false
let set_enabled on = enabled := on

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]

(* [span name f] runs [f ()] under a span; spans nest by dynamic
   extent.  Only the calling domain records spans. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; parent; name; t0; t1 } :: !spans)
      f
  end

let duration s = s.t1 -. s.t0
let find name = List.filter (fun s -> s.name = name) !spans
let total name = List.fold_left (fun a s -> a +. duration s) 0. (find name)

(* An accumulator of time (ns) and calls, safe across domains. *)
type acc = { ns : int Atomic.t; calls : int Atomic.t; items : int Atomic.t }

let acc () = { ns = Atomic.make 0; calls = Atomic.make 0; items = Atomic.make 0 }
let seconds a = float_of_int (Atomic.get a.ns) *. 1e-9
let calls a = Atomic.get a.calls
let items a = Atomic.get a.items

(* [timed a ~count f] wraps [f] so every call adds its duration, one
   call, and [count] of its result as items. *)
let timed a ~count f x =
  let t0 = now () in
  let r = f x in
  let dt = now () -. t0 in
  ignore (Atomic.fetch_and_add a.ns (int_of_float (dt *. 1e9)));
  Atomic.incr a.calls;
  let c = count r in
  if c <> 0 then ignore (Atomic.fetch_and_add a.items c);
  r

(* Accumulators written to the trace file, by name. *)
let registered : (string * acc) list ref = ref []
let register name a = registered := (name, a) :: !registered

(* Chrome trace-event JSON: spans as complete ("X") events, the
   registered accumulators as one counter event each. *)
let write_file path =
  let oc = open_out path in
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
    |> fun b -> if b = infinity then now () else b
  in
  let us t = (t -. base) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  List.iter
    (fun s ->
      sep ();
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name (us s.t0) (duration s *. 1e6) s.id s.parent)
    (List.rev !spans);
  List.iter
    (fun (name, a) ->
      sep ();
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"seconds\":%.9f,\"calls\":%d,\"items\":%d}}"
        name (seconds a) (calls a) (items a))
    (List.rev !registered);
  output_string oc "\n]}\n";
  close_out oc

(* Record an already-measured interval (the serve client's requests,
   which overlap across connections) as a root span. *)
let record name t0 t1 =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    spans := { id; parent = 0; name; t0; t1 } :: !spans
  end
