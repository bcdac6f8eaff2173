(* Files, statistics, process figures and the result line. *)

(* Everything the benchmark writes goes under this directory of the
   checkout it runs in. *)
let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let rec dir_bytes p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun a f -> a + dir_bytes (Filename.concat p f))
        0 (Sys.readdir p)
  | { Unix.st_size; _ } -> st_size

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* The median interpolates between the middle pair. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* User plus system CPU seconds of this process (all domains). *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ... of its terminated, reaped children. *)
let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      let kb =
        List.find_map
          (fun line ->
            Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb))
          (String.split_on_char '\n' s)
      in
      (match kb with Some kb -> float kb /. 1024. | None -> nan)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last line of standard output: the result of the run. *)
let print_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "null"
  in
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
