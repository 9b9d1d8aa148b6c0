(* Shared configuration and plumbing of the benchmark: the fixed
   workload shape, seeded inputs, sample buffers and statistics, child
   processes, scratch files and the per-run report. *)

module Prng = Wavesyn_util.Prng
module Signal = Wavesyn_datagen.Signal
module Mclock = Wavesyn_obs.Mclock
module Metrics = Wavesyn_synopsis.Metrics

(* The serving shape every workload shares: a zipf frequency vector of
   n cells served at budget B under the absolute metric. *)
let n = 1024
let budget = 64
let metric = Metrics.Abs
let epsilon = 0.25
let zipf_alpha = 1.2
let zipf_scale = 100.

(* The multi-dimensional build inputs (Theorems 3.2 and 3.4). *)
let grid_side = 16
let grid_budget = 8
let rel_metric = Metrics.Rel { sanity = 1.0 }

(* One closed-loop client per core of the 2-core reference host. *)
let clients = 2

(* Independent sub-seeds: every input is a pure function of the
   workload seed and a fixed tag. *)
let derive seed tag = Hashtbl.hash (seed, tag)

let zipf ~seed =
  Signal.zipf
    ~rng:(Prng.create ~seed:(derive seed "zipf"))
    ~n ~alpha:zipf_alpha ~scale:zipf_scale

let grid ~seed =
  Signal.grid_zipf
    ~rng:(Prng.create ~seed:(derive seed "grid"))
    ~side:grid_side ~alpha:zipf_alpha ~scale:zipf_scale

let now_ns = Mclock.now_ns
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let s_since t0 = ns_between t0 (now_ns ()) /. 1e9
let ms_since t0 = ns_between t0 (now_ns ()) /. 1e6

(* Growable float buffer for raw latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 4096 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0. in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
  let concat bs = Array.concat (List.map to_array bs)
end

(* Nearest-rank percentile ([p] in [0, 1]) of a nonempty sample. *)
let percentile xs p =
  let s = Array.copy xs in
  Array.sort compare s;
  let k = int_of_float (Float.ceil (p *. float_of_int (Array.length s))) in
  s.(max 0 (min (Array.length s - 1) (k - 1)))

let median xs = percentile xs 0.5

(* Time [f] over [reps] repetitions and return the median in ns. *)
let median_ns ~reps f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         ns_between t0 (now_ns ())))

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt

(* --- the report: human lines first, the JSON result line last --- *)

let note fmt = Printf.printf (fmt ^^ "\n%!")

type metric = { name : string; value : float; unit_ : string }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else fail "non-finite metric value %f" x

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number value) (json_string unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* --- scratch files inside the checkout --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Relative paths keep Unix socket names short whatever the checkout's
   absolute location. *)
let scratch_root = ".wsbench-tmp"
let scratch = Printf.sprintf "%s/%d" scratch_root (Unix.getpid ())

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* --- child processes --- *)

let children : int list ref = ref []

(* The core the server processes are pinned to, if any (see run.py). *)
let server_cpu : int option ref = ref None

let spawn ~log prog args =
  let prog, args =
    match !server_cpu with
    | Some cpu -> ("taskset", "-c" :: string_of_int cpu :: prog :: args)
    | None -> (prog, args)
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  children := pid :: !children;
  pid

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let forget pid = children := List.filter (( <> ) pid) !children

(* Wait up to [timeout_s] for [pid] to exit on its own, then kill it. *)
let reap ?(timeout_s = 30.) pid =
  let t0 = now_ns () in
  let rec go () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when s_since t0 < timeout_s ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  forget pid

let exited pid =
  match waitpid_retry [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      forget pid;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Peak resident set of a live process, from /proc. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> fail "no VmHWM line in %s" path
  in
  scan ()
