(* The four serving workloads: the real `wavesyn server` process driven
   by closed-loop socket clients, with the answer check and the STATS
   read-back after every run. *)

module Wire = Wavesyn_server.Wire
module Client = Wavesyn_server.Client
module Loadgen = Wavesyn_server.Loadgen
module Shard = Wavesyn_server.Shard
module Validate = Wavesyn_robust.Validate
module Ladder = Wavesyn_robust.Ladder
module Supervisor = Wavesyn_robust.Supervisor
module Synopsis = Wavesyn_synopsis.Synopsis
module Crc32 = Wavesyn_util.Crc32
open Common

type kind = Read_cold | Read_hot | Write | Sharded

type spec = {
  batch : int;  (** requests per frame *)
  hot : int;  (** Loadgen hot-set size; 0 draws fresh parameters *)
  mix : Loadgen.mix;
  verify : int;
      (** requests per client whose transcript CRC must match across
          server launches; 0 on the live server, whose answers move *)
}

let spec = function
  | Read_cold | Sharded ->
      { batch = 1; hot = 0; mix = Loadgen.default_mix; verify = 256 }
  | Read_hot -> { batch = 16; hot = 512; mix = Loadgen.default_mix; verify = 512 }
  | Write ->
      { batch = 1; hot = 0; mix = { Loadgen.default_mix with update = 2 }; verify = 0 }

let launches = 3
let client_seed seed c = derive seed ("client", c)
let ok_or_fail what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Validate.to_string e)

(* --- the served guarantee of a read-only server --- *)

(* Per-cell max-error guarantee: the Ladder.serve guarantee for the
   same inputs the server cuts (each shard cuts its own slice). Also
   returns the synopses, which the traced run replays against. *)
let ladder_cuts kind data =
  let slices =
    match kind with
    | Sharded ->
        List.map
          (fun { Shard.lo; hi } -> (lo, Array.sub data lo (hi - lo + 1)))
          (Result.get_ok (Shard.split ~n ~shards:2))
    | _ -> [ (0, data) ]
  in
  List.map
    (fun (lo, slice) ->
      let t0 = now_ns () in
      let served =
        ok_or_fail "ladder"
          (Ladder.serve ~epsilon ~data:slice ~budget metric)
      in
      (lo, served, ms_since t0))
    slices

let per_cell_bound cuts =
  let g = Array.make n 0. in
  List.iter
    (fun (lo, s, _) ->
      for i = lo to lo + Synopsis.n s.Ladder.synopsis - 1 do
        g.(i) <- s.Ladder.max_err
      done)
    cuts;
  g

(* --- server processes --- *)

let write_data path data =
  write_lines path
    (Array.to_list (Array.map (Printf.sprintf "%.17g") data))

(* Seed a durable store with the zipf vector through the store's own
   ingest path; fsync and the re-cut cadence are off while seeding
   only (the server reopens it with its defaults). *)
let seed_store dir data =
  let cfg =
    Supervisor.config ~checkpoint_every:max_int ~recut_every:max_int
      ~sync:false ~dir ~n ~budget metric
  in
  let sup = ok_or_fail "open store" (Supervisor.open_store cfg) in
  Array.iteri
    (fun i v -> ignore (ok_or_fail "seed ingest" (Supervisor.ingest sup ~i ~delta:v)))
    data;
  ignore (ok_or_fail "checkpoint" (Supervisor.checkpoint sup));
  Supervisor.close sup

let port_free p =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* A loopback port with the two shard ports after it also free. *)
let pick_port () =
  let rec go k =
    if k > 200 then fail "no free loopback port";
    let p = 20000 + ((Unix.getpid () * 7 + k * 131) mod 40000) in
    if port_free p && port_free (p + 1) && port_free (p + 2) then p
    else go (k + 1)
  in
  go 0

let server_args kind ~endpoint ~file ~store =
  let common = [ "--jobs"; "1"; "--cache" ] in
  match kind with
  | Write -> [ "server"; "--listen"; endpoint; "--store"; store ] @ common
  | Read_cold | Read_hot | Sharded ->
      [ "server"; "--listen"; endpoint; "--file"; file; "-B";
        string_of_int budget; "--metric"; "abs" ]
      @ (if kind = Sharded then [ "--shards"; "2" ] else [])
      @ common

let connect endpoint =
  ok_or_fail "connect" (Client.connect ~timeout_ms:60_000. endpoint)

(* Launch the server and time launch → first successful reply. *)
let launch ~cli ~log ~endpoint args =
  let t0 = now_ns () in
  let pid = spawn ~log cli args in
  let rec first_reply () =
    if exited pid then fail "server exited during start-up (see %s)" log;
    if s_since t0 > 120. then fail "server did not answer within 120 s";
    match Client.connect ~timeout_ms:60_000. endpoint with
    | Error _ ->
        Unix.sleepf 0.001;
        first_reply ()
    | Ok c -> (
        let r = Client.request_one c Wire.Ping in
        Client.close c;
        match r with
        | Ok Wire.Pong -> s_since t0
        | _ ->
            Unix.sleepf 0.001;
            first_reply ())
  in
  let setup = first_reply () in
  (pid, setup)

let shutdown pid endpoint =
  let c = connect endpoint in
  (match Client.request_one c Wire.Shutdown with
  | Ok Wire.Bye -> ()
  | Ok r -> fail "SHUTDOWN answered %s" (Wire.describe_reply r)
  | Error e -> fail "SHUTDOWN: %s" (Validate.to_string e));
  Client.close c;
  reap pid

(* --- STATS --- *)

(* The front-end's own table (a sharded server appends per-shard
   sections after a "== shard" header): counters and gauges by name,
   histograms as NAME.count / NAME.sum. *)
let parse_stats text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> acc
    | l :: _ when String.length l >= 2 && String.sub l 0 2 = "==" -> acc
    | l :: rest -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | ("counter" | "gauge") :: name :: v :: _ ->
            go ((name, float_of_string v) :: acc) rest
        | "histogram" :: name :: fields ->
            let field k =
              List.find_map
                (fun f ->
                  match String.index_opt f '=' with
                  | Some i when String.sub f 0 i = k ->
                      float_of_string_opt
                        (String.sub f (i + 1) (String.length f - i - 1))
                  | _ -> None)
                fields
            in
            let acc =
              match (field "count", field "sum") with
              | Some c, Some s -> (name ^ ".count", c) :: (name ^ ".sum", s) :: acc
              | Some c, None -> (name ^ ".count", c) :: acc
              | _ -> acc
            in
            go acc rest
        | _ -> go acc rest)
  in
  go [] lines

let read_stats endpoint =
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request_one c Wire.Stats with
  | Ok (Wire.Stats_text s) -> parse_stats s
  | Ok r -> fail "STATS answered %s" (Wire.describe_reply r)
  | Error e -> fail "STATS: %s" (Validate.to_string e)

let stat stats name = Option.value ~default:0. (List.assoc_opt name stats)

(* --- the answer check --- *)

let tol x = 1e-6 *. (1. +. Float.abs x)

type oracle = {
  prefix : float array;  (** exact prefix sums of the served data *)
  gprefix : float array;  (** prefix sums of the per-cell guarantee *)
}

let prefix_sums a =
  let p = Array.make (Array.length a + 1) 0. in
  Array.iteri (fun i x -> p.(i + 1) <- p.(i) +. x) a;
  p

(* [Some o] checks every read against the exact data within the served
   guarantee (read-only servers); [None] checks reply kinds only (the
   live server, whose exact state moves under concurrent writes — it
   is checked cell by cell after the run). *)
let judge oracle req reply =
  let within ~lo ~hi v =
    match oracle with
    | None -> true
    | Some o ->
        let exact = o.prefix.(hi + 1) -. o.prefix.(lo) in
        Float.abs (v -. exact) <= o.gprefix.(hi + 1) -. o.gprefix.(lo) +. tol exact
  in
  match (req, reply) with
  | Wire.Ping, Wire.Pong -> true
  | Wire.Point i, Wire.Value v -> within ~lo:i ~hi:i v
  | Wire.Range { lo; hi }, Wire.Value v -> within ~lo ~hi v
  | Wire.Quantile _, Wire.Quantile_pos p -> p >= 0 && p < n
  | Wire.Update _, Wire.Acked _ -> true
  | _ -> false

(* --- closed-loop clients --- *)

type client = {
  rtt_ms : Fbuf.t;  (** per-frame round trips, untraced *)
  at_s : Fbuf.t;  (** completion time of each [rtt_ms] frame, from window start *)
  oks : Fbuf.t;  (** successful requests in each [rtt_ms] frame *)
  traced_ms : Fbuf.t;  (** per-frame round trips taken under tracing *)
  upd_ms : Fbuf.t;  (** UPDATE frames only *)
  mutable frames : int;
  mutable requests : int;
  mutable failed : int;  (** ERROR, OVERLOAD, transport or check failure *)
  mutable violations : int;  (** answer-check failures among them *)
  deltas : float array;  (** acknowledged update deltas per cell *)
  mutable crc : int;  (** transcript CRC over the first [verify] lines *)
  mutable crc_lines : int;
  mutable transport : string option;
  recorder : Span.t;
}

(* One caller that waits for each reply: its own connection and its
   own seed-derived Loadgen stream, stopped at [deadline] by refusing
   the next frame. *)
let run_client ~conn ~seed ~spec ~oracle ~t_start ~deadline ~trace_from ~recorder =
  let r =
    {
      rtt_ms = Fbuf.create (); at_s = Fbuf.create (); oks = Fbuf.create ();
      traced_ms = Fbuf.create (); upd_ms = Fbuf.create ();
      frames = 0; requests = 0; failed = 0; violations = 0;
      deltas = Array.make n 0.; crc = Crc32.string ""; crc_lines = 0;
      transport = None; recorder;
    }
  in
  let stop = Validate.Io_error { path = "<benchmark>"; reason = "window over" } in
  let rpc frame =
    let start = now_ns () in
    if Int64.compare start deadline >= 0 then Error stop
    else begin
      r.frames <- r.frames + 1;
      let traced = Int64.compare start trace_from >= 0 in
      let call () = Client.request conn frame in
      let t0 = now_ns () in
      let res =
        if traced then Span.with_ recorder "client.rpc" ~req:r.frames call
        else call ()
      in
      let t1 = now_ns () in
      let dt = ns_between t0 t1 /. 1e6 and at = ns_between t_start t1 /. 1e9 in
      let reqs = match frame with Wire.Batch l -> l | q -> [ q ] in
      r.requests <- r.requests + List.length reqs;
      let failed_before = r.failed in
      (match res with
      | Ok replies when List.length replies = List.length reqs ->
          (match frame with Wire.Update _ -> Fbuf.add r.upd_ms dt | _ -> ());
          List.iter2
            (fun q a ->
              (match (q, a) with
              | Wire.Update { i; delta }, Wire.Acked _ ->
                  r.deltas.(i) <- r.deltas.(i) +. delta
              | _ -> ());
              if not (judge oracle q a) then begin
                r.failed <- r.failed + 1;
                match a with
                | Wire.Error _ | Wire.Overload _ -> ()
                | _ -> r.violations <- r.violations + 1
              end)
            reqs replies;
          if traced then Fbuf.add r.traced_ms dt
          else begin
            Fbuf.add r.rtt_ms dt;
            Fbuf.add r.at_s at;
            Fbuf.add r.oks (float_of_int (List.length reqs - (r.failed - failed_before)))
          end
      | Ok _ | Error _ -> r.failed <- r.failed + List.length reqs);
      res
    end
  in
  let out line =
    if r.crc_lines < spec.verify then begin
      r.crc <- Crc32.update r.crc line;
      r.crc_lines <- r.crc_lines + 1
    end
  in
  (match
     Loadgen.run ~hot:spec.hot ~rpc ~seed ~requests:max_int ~batch:spec.batch
       ~n ~mix:spec.mix ~out ()
   with
  | Ok _ -> ()
  | Error e when e == stop -> ()
  | Error e -> r.transport <- Some (Validate.to_string e));
  r

(* The clients run as separate processes: two domains of one process
   would share stop-the-world minor collections, coupling the loops and
   stalling both whenever either is descheduled. Each child sends its
   result back through a file. *)
let run_clients (body : int -> client) =
  let pids =
    Array.init clients (fun c ->
        let out = Printf.sprintf "%s/client%d.bin" scratch c in
        match Unix.fork () with
        | 0 ->
            let code =
              match body c with
              | r ->
                  let oc = open_out_bin out in
                  Marshal.to_channel oc r [];
                  close_out oc;
                  0
              | exception e ->
                  prerr_endline ("wsbench client: " ^ Printexc.to_string e);
                  3
            in
            Unix._exit code
        | pid ->
            children := pid :: !children;
            (pid, out))
  in
  Array.map
    (fun (pid, out) ->
      let _, status = waitpid_retry [] pid in
      forget pid;
      if status <> Unix.WEXITED 0 then fail "client process failed";
      let ic = open_in_bin out in
      let (r : client) = Marshal.from_channel ic in
      close_in ic;
      r)
    pids

(* The first [verify] requests of each client against a fresh launch:
   their transcript CRC, compared across launches of one seed. *)
let verify_crcs ~endpoint ~seed spec =
  List.init clients (fun c ->
      let conn = connect endpoint in
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      let s =
        ok_or_fail "verification stream"
          (Loadgen.run ~hot:spec.hot ~rpc:(Client.request conn)
             ~seed:(client_seed seed c) ~requests:spec.verify ~batch:spec.batch
             ~n ~mix:spec.mix ~out:ignore ())
      in
      s.Loadgen.transcript_crc)

(* Idle PING round trips on one connection, in microseconds. *)
let ping_us endpoint =
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let xs =
    Array.init 400 (fun _ ->
        let t0 = now_ns () in
        (match Client.request_one c Wire.Ping with
        | Ok Wire.Pong -> ()
        | _ -> fail "PING probe failed");
        ns_between t0 (now_ns ()) /. 1e3)
  in
  median xs

(* Read back every cell with POINT; returns each cell's |answer - exact|
   and the number of cells outside [bound i]. *)
let read_back endpoint ~exact ~bound =
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let err = Array.make n Float.infinity and bad = ref 0 in
  let per_frame = 64 in
  for f = 0 to (n / per_frame) - 1 do
    let cells = List.init per_frame (fun k -> (f * per_frame) + k) in
    match Client.request c (Wire.Batch (List.map (fun i -> Wire.Point i) cells)) with
    | Ok replies when List.length replies = per_frame ->
        List.iter2
          (fun i reply ->
            match reply with
            | Wire.Value v ->
                err.(i) <- Float.abs (v -. exact.(i));
                if err.(i) > bound i +. tol exact.(i) then incr bad
            | _ -> incr bad)
          cells replies
    | Ok _ -> bad := !bad + per_frame
    | Error e -> fail "read-back: %s" (Validate.to_string e)
  done;
  (err, !bad)

(* The live server's error drifts between full re-cuts, so a read-back
   at an arbitrary moment samples a sawtooth. Zero-delta updates (which
   change no value) advance it to its next full re-cut, where the error
   is a function of the data alone. Returns the updates sent. *)
let align_to_full_cut endpoint =
  let full () = stat (read_stats endpoint) "recut.full" in
  let start = full () in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rec go k =
    if k > 1024 then fail "no full re-cut after %d zero-delta updates" k;
    (match Client.request_one c (Wire.Update { i = 0; delta = 0. }) with
    | Ok (Wire.Acked _) -> ()
    | Ok r -> fail "zero-delta UPDATE answered %s" (Wire.describe_reply r)
    | Error e -> fail "zero-delta UPDATE: %s" (Validate.to_string e));
    if full () > start then k else go (k + 1)
  in
  go 1

(* --- one serving run --- *)

type outcome = {
  setup_s : float array;  (** launch → first reply, per launch *)
  untraced_s : float;  (** the part of the window measured untraced *)
  results : client array;
  crc_ok : bool;
  crcs : string list;
  stats : (string * float) list;
  rss_mb : float;
  err_sum : float;  (** per serving synopsis, its max read-back error, summed *)
  readback_bad : int;
  bound : float;  (** the guarantee the read-back was held to (max over cells) *)
  ping_us : float;  (** nan unless traced *)
  cuts : (int * Ladder.served * float) list;  (** read-only: ladder cuts *)
  data : float array;
}

let run ~cli ~kind ~seed ~seconds ~trace =
  let spec = spec kind in
  let data = zipf ~seed in
  mkdir_p scratch;
  let file = scratch ^ "/data.txt" and store = scratch ^ "/store" in
  let cuts = match kind with Write -> [] | _ -> ladder_cuts kind data in
  let g = per_cell_bound cuts in
  let oracle =
    match kind with
    | Write -> None
    | _ -> Some { prefix = prefix_sums data; gprefix = prefix_sums g }
  in
  (match kind with Write -> seed_store store data | _ -> write_data file data);
  let endpoint =
    match kind with
    | Sharded -> Printf.sprintf "tcp:127.0.0.1:%d" (pick_port ())
    | _ -> scratch ^ "/s.sock"
  in
  let args = server_args kind ~endpoint ~file ~store in
  let log = scratch ^ "/server.log" in
  let setup_s = Array.make launches 0. in
  let crcs = ref [] in
  let pid = ref 0 in
  for l = 0 to launches - 1 do
    let p, s = launch ~cli ~log ~endpoint args in
    setup_s.(l) <- s;
    if l < launches - 1 then begin
      if spec.verify > 0 then crcs := verify_crcs ~endpoint ~seed spec :: !crcs;
      shutdown p endpoint
    end
    else pid := p
  done;
  let t_start = now_ns () in
  let window = Int64.of_float (seconds *. 1e9) in
  let deadline = Int64.add t_start window in
  (* A traced run takes its spans in the second half of the window, so
     the first half measures the same server untraced. *)
  let trace_from =
    if trace then Int64.add t_start (Int64.div window 2L) else Int64.max_int
  in
  let results =
    run_clients (fun c ->
        let conn = connect endpoint in
        let r =
          run_client ~conn ~seed:(client_seed seed c) ~spec ~oracle ~t_start
            ~deadline ~trace_from
            ~recorder:(Span.create ~base:((c + 1) * 100_000_000))
        in
        Client.close conn;
        r)
  in
  let ping_us = if trace then ping_us endpoint else Float.nan in
  let stats = read_stats endpoint in
  let rss_mb = peak_rss_mb !pid in
  let exact =
    Array.mapi
      (fun i v -> Array.fold_left (fun acc r -> acc +. r.deltas.(i)) v results)
      data
  in
  (* STATS prints the live bound to six significant digits. *)
  let live_bound () = stat (read_stats endpoint) "recut.bound" *. (1. +. 1e-5) in
  let bound, err, readback_bad =
    match kind with
    | Write ->
        let b = live_bound () in
        let _, bad = read_back endpoint ~exact ~bound:(fun _ -> b) in
        let k = align_to_full_cut endpoint in
        note "# write: read-back aligned to a full re-cut after %d zero-delta updates" k;
        let b' = live_bound () in
        let err, bad' = read_back endpoint ~exact ~bound:(fun _ -> b') in
        (Float.max b b', err, bad + bad')
    | _ ->
        let err, bad = read_back endpoint ~exact ~bound:(fun i -> g.(i)) in
        (Array.fold_left Float.max 0. g, err, bad)
  in
  (* One term per synopsis serving the data: each shard's, or the one. *)
  let spans =
    match cuts with
    | [] -> [ (0, n) ]
    | _ -> List.map (fun (lo, s, _) -> (lo, Synopsis.n s.Ladder.synopsis)) cuts
  in
  let err_sum =
    List.fold_left
      (fun acc (lo, len) ->
        acc +. Array.fold_left Float.max 0. (Array.sub err lo len))
      0. spans
  in
  shutdown !pid endpoint;
  let crcs = List.rev !crcs in
  let measured_crcs =
    Array.to_list
      (Array.map
         (fun r ->
           if r.crc_lines = spec.verify then Crc32.to_hex r.crc else "short")
         results)
  in
  let crc_ok =
    spec.verify = 0 || List.for_all (fun c -> c = measured_crcs) crcs
  in
  {
    setup_s; untraced_s = (if trace then seconds /. 2. else seconds);
    results; crc_ok; crcs = measured_crcs; stats; rss_mb;
    err_sum; readback_bad; bound; ping_us; cuts; data;
  }
