(* Per-layer numbers for the traced run. The server's internal layers
   are timed by replaying the run's own request schedule in-process
   through the public functions the server calls, in the server's
   order: Wire.decode, Admit, Rcache, Fusion (or Shard.eval behind a
   router), Wire.encode_reply; writes go through Supervisor.ingest and
   then Incremental. Each call is a span; the ns-scale costs are then
   re-timed as tight loops over the same inputs, where per-call clock
   reads would dominate. *)

module Wire = Wavesyn_server.Wire
module Admit = Wavesyn_server.Admit
module Shard = Wavesyn_server.Shard
module Loadgen = Wavesyn_server.Loadgen
module Rcache = Wavesyn_adaptive.Rcache
module Fusion = Wavesyn_adaptive.Fusion
module Synopsis = Wavesyn_synopsis.Synopsis
module Range_query = Wavesyn_synopsis.Range_query
module Quantiles = Wavesyn_aqp.Quantiles
module Ladder = Wavesyn_robust.Ladder
module Incremental = Wavesyn_robust.Incremental
module Supervisor = Wavesyn_robust.Supervisor
module Validate = Wavesyn_robust.Validate
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
open Common

(* Requests replayed per run (both clients together), and updates
   pushed through the durable write path. *)
let replay_cap = 20_000
let update_cap = 64

(* --- the durable write path: Supervisor.ingest, then Incremental --- *)

type store = {
  sup : Supervisor.t;
  live : Incremental.t;
  ingest_ms : Fbuf.t;
  refresh_ms : Fbuf.t;
  full_cut_ms : Fbuf.t;
  mutable applied : int;
}

(* A store seeded with the workload's data and reopened with the
   server's defaults: fsync on, checkpoint every 64, full re-cut every
   32 applied updates. *)
let open_store ~dir data =
  Serving.seed_store dir data;
  let cfg =
    Supervisor.config ~checkpoint_every:64 ~recut_every:max_int ~sync:true ~dir
      ~n ~budget metric
  in
  let sup = Serving.ok_or_fail "open store" (Supervisor.open_store cfg) in
  let live =
    Incremental.create ~full_every:32 ~budget ~metric ~epsilon
      (Supervisor.stream sup)
  in
  {
    sup; live; ingest_ms = Fbuf.create (); refresh_ms = Fbuf.create ();
    full_cut_ms = Fbuf.create (); applied = 0;
  }

let timed buf f =
  let t0 = now_ns () in
  let v = f () in
  Fbuf.add buf (ms_since t0);
  v

let apply st rec_ ~req ~i ~delta =
  let seq =
    timed st.ingest_ms (fun () ->
        Span.with_ rec_ "store.ingest" ~req (fun () ->
            Serving.ok_or_fail "ingest" (Supervisor.ingest st.sup ~i ~delta)))
  in
  Incremental.note_update st.live ~i ~delta;
  let stream = Supervisor.stream st.sup in
  if Incremental.due_full st.live then
    timed st.full_cut_ms (fun () ->
        Span.with_ rec_ "incremental.full_cut" ~req (fun () ->
            ignore (Incremental.full_cut st.live stream)))
  else
    timed st.refresh_ms (fun () ->
        Span.with_ rec_ "incremental.refresh" ~req (fun () ->
            Incremental.refresh st.live stream));
  st.applied <- st.applied + 1;
  seq

(* --- the in-process replay of the read path --- *)

type replay = {
  rec_ : Span.t;
  admit : int Admit.t;
  cache : (string, Wire.reply) Rcache.t;
  mutable epoch : int;
  mutable synopsis : Synopsis.t;
  router : Shard.t option;
  store : store option;
  mutable req_no : int;
  mutable frames : string list;  (** encoded request frames *)
  mutable replies : string list;  (** encoded reply frames *)
  mutable reads : Wire.request list;
}

let eval_read r ~plan req =
  let sp name f = Span.with_ r.rec_ name ~req:r.req_no f in
  match (r.router, req) with
  | Some router, _ -> sp "shard.eval" (fun () -> Shard.eval router req)
  | None, Wire.Point i ->
      sp "eval.point" (fun () -> Wire.Value (Synopsis.reconstruct_point r.synopsis i))
  | None, Wire.Range { lo; hi } ->
      sp "fusion.range" (fun () -> Wire.Value (Fusion.range_sum (Lazy.force plan) ~lo ~hi))
  | None, Wire.Quantile q ->
      sp "fusion.quantile" (fun () ->
          Wire.Quantile_pos (Fusion.quantile (Lazy.force plan) ~q))
  | None, _ -> fail "not a read: %s" (Wire.describe_request req)

let cacheable = function Wire.Range _ | Wire.Quantile _ -> true | _ -> false

(* One frame, as one serving round: decode, writes applied before
   reads, admission, cache pre-pass, evaluation, cache fill, encode. *)
let replay_frame r frame =
  r.req_no <- r.req_no + 1;
  let req = r.req_no in
  let sp name f = Span.with_ r.rec_ name ~req f in
  Span.with_ r.rec_ "replay.frame" ~req @@ fun () ->
  let bytes = Wire.encode_request frame in
  r.frames <- bytes :: r.frames;
  let decoded =
    sp "wire.decode" (fun () ->
        Wire.decode (Bytes.unsafe_of_string bytes) ~pos:0
          ~len:(String.length bytes))
  in
  let reqs =
    match decoded with
    | `Frame (Wire.Req (Wire.Batch l), _) -> l
    | `Frame (Wire.Req q, _) -> [ q ]
    | _ -> fail "replay: frame did not decode"
  in
  let slots = Array.make (List.length reqs) Wire.Pong in
  let admitted = ref [] in
  List.iteri
    (fun k q ->
      match q with
      | Wire.Ping -> ()
      | Wire.Update { i; delta } ->
          let seq =
            match r.store with
            | Some st when st.applied < update_cap ->
                let seq = apply st r.rec_ ~req ~i ~delta in
                r.synopsis <- Incremental.synopsis st.live;
                seq
            | _ -> 0
          in
          r.epoch <- r.epoch + 1;
          slots.(k) <- Wire.Acked { seq }
      | _ ->
          r.reads <- q :: r.reads;
          if sp "admit.offer" (fun () -> Admit.offer r.admit k) then
            admitted := (k, q) :: !admitted)
    reqs;
  ignore (sp "admit.take_batch" (fun () -> Admit.take_batch r.admit));
  let plan = lazy (sp "fusion.plan" (fun () -> Fusion.plan r.synopsis)) in
  List.iter
    (fun (k, q) ->
      let key = Wire.describe_request q in
      let hit =
        if cacheable q then
          sp "rcache.find" (fun () -> Rcache.find r.cache ~epoch:r.epoch key)
        else None
      in
      slots.(k) <-
        (match hit with
        | Some reply -> reply
        | None ->
            let reply = eval_read r ~plan q in
            if cacheable q then
              sp "rcache.add" (fun () -> Rcache.add r.cache ~epoch:r.epoch key reply);
            reply))
    (List.rev !admitted);
  Array.iter
    (fun reply ->
      r.replies <- sp "wire.encode" (fun () -> Wire.encode_reply reply) :: r.replies)
    slots;
  Ok (Array.to_list slots)

(* Regenerate each client's stream exactly (same seeds, same Loadgen
   call) and push it through [replay_frame]. *)
let replay r ~seed ~(spec : Serving.spec) ~per_client =
  Array.iteri
    (fun c requests ->
      match
        Loadgen.run ~hot:spec.hot ~rpc:(replay_frame r)
          ~seed:(Serving.client_seed seed c) ~requests ~batch:spec.batch ~n
          ~mix:spec.mix ~out:ignore ()
      with
      | Ok _ -> ()
      | Error e -> fail "replay: %s" (Validate.to_string e))
    per_client

(* --- shard routing over counting stub backends --- *)

let stub_backend syn calls req =
  incr calls;
  match req with
  | Wire.Point i -> Ok [ Wire.Value (Synopsis.reconstruct_point syn i) ]
  | Wire.Range { lo; hi } -> Ok [ Wire.Value (Range_query.range_sum syn ~lo ~hi) ]
  | _ -> Ok [ Wire.Error { code = Wire.Internal; message = "stub: read-only" } ]

let router_over cuts =
  let calls = ref 0 in
  let ranges, rpcs =
    List.split
      (List.map
         (fun (lo, s, _) ->
           ( { Shard.lo; hi = lo + Synopsis.n s.Ladder.synopsis - 1 },
             stub_backend s.Ladder.synopsis calls ))
         cuts)
  in
  match Shard.router ~n ~ranges (Array.of_list rpcs) with
  | Ok router ->
      Shard.set_cache router ~cap:4096;
      (router, calls)
  | Error reason -> fail "router: %s" reason

(* --- tight-loop timings --- *)

(* ns per item of [f] over [items], median of 5 passes. *)
let per_item items f =
  let k = Array.length items in
  if k = 0 then Float.nan
  else median_ns ~reps:5 (fun () -> Array.iter f items) /. float_of_int k

let to_array l = Array.of_list (List.rev l)

type result = { metrics : (string * float) list; spans : Span.span list }

(* [cuts]: the workload's own ladder cuts (empty when it has none);
   [per_client]: requests each client sent in the timed window. *)
let measure ~seed ~data ~spec ~kind ~cuts ~per_client =
  let rec_ = Span.create ~base:900_000_000 in
  (* The whole-vector cut the read path is timed against: the
     workload's own on an unsharded read-only server. *)
  let served, full_ms =
    match (kind, cuts) with
    | `Unsharded, [ (_, s, ms) ] -> (s, ms)
    | _ ->
        let t0 = now_ns () in
        let s =
          Serving.ok_or_fail "ladder" (Ladder.serve ~epsilon ~data ~budget metric)
        in
        (s, ms_since t0)
  in
  let ladder_ms =
    match kind with
    | `Sharded -> List.fold_left (fun a (_, _, ms) -> a +. ms) 0. cuts
    | _ -> full_ms
  in
  let shard_cuts =
    match kind with `Sharded -> cuts | _ -> Serving.ladder_cuts Serving.Sharded data
  in
  mkdir_p scratch;
  let store = open_store ~dir:(scratch ^ "/probe-store") data in
  let r =
    {
      rec_; admit = Admit.create ~bound:64 (); cache = Rcache.create ();
      epoch = 0; synopsis = served.Ladder.synopsis;
      router =
        (match kind with `Sharded -> Some (fst (router_over shard_cuts)) | _ -> None);
      store = (match kind with `Live -> Some store | _ -> None);
      req_no = 0; frames = []; replies = []; reads = [];
    }
  in
  let total = Array.fold_left ( + ) 0 per_client in
  let scale = Float.min 1. (float_of_int replay_cap /. float_of_int (max 1 total)) in
  let per_client =
    Array.map
      (fun k ->
        let k = int_of_float (float_of_int k *. scale) in
        k - (k mod spec.Serving.batch))
      per_client
  in
  replay r ~seed ~spec ~per_client;
  (* The write path, topped up with seeded updates where the schedule
     carried fewer than [update_cap]. *)
  let rng = Prng.create ~seed:(derive seed "updates") in
  while store.applied < update_cap do
    let i = Prng.int rng n in
    let delta = Prng.float rng 2. -. 1. in
    ignore (apply store rec_ ~req:0 ~i ~delta)
  done;
  Supervisor.close store.sup;
  let frames = to_array r.frames and replies = to_array r.replies in
  let reads = to_array r.reads in
  let requests =
    Array.map
      (fun b ->
        match Wire.decode (Bytes.unsafe_of_string b) ~pos:0 ~len:(String.length b) with
        | `Frame (Wire.Req q, _) -> q
        | _ -> fail "re-decode")
      frames
  in
  let syn = served.Ladder.synopsis in
  let plan = Fusion.plan syn in
  let only p = Array.of_list (List.filter p (Array.to_list reads)) in
  let points = only (function Wire.Point _ -> true | _ -> false) in
  let ranges = only (function Wire.Range _ -> true | _ -> false) in
  let quantiles = only (function Wire.Quantile _ -> true | _ -> false) in
  let sink = ref 0. in
  let encoded = Array.append frames replies in
  let wire_encode_ns =
    let nr = Array.length requests and np = Array.length replies in
    let t_req = per_item requests (fun q -> ignore (Wire.encode_request q)) in
    let decoded_replies =
      Array.map
        (fun b ->
          match Wire.decode (Bytes.unsafe_of_string b) ~pos:0 ~len:(String.length b) with
          | `Frame (Wire.Rep a, _) -> a
          | _ -> fail "re-decode reply")
        replies
    in
    let t_rep = per_item decoded_replies (fun a -> ignore (Wire.encode_reply a)) in
    ((t_req *. float_of_int nr) +. (t_rep *. float_of_int np))
    /. float_of_int (nr + np)
  in
  let wire_decode_ns =
    per_item encoded (fun b ->
        ignore (Wire.decode (Bytes.unsafe_of_string b) ~pos:0 ~len:(String.length b)))
  in
  let admit_cycle_ns =
    let a = Admit.create ~bound:64 () in
    let sizes =
      Array.map (function Wire.Batch l -> List.length l | _ -> 1) requests
    in
    let per_frame =
      per_item sizes (fun k ->
          for j = 1 to k do
            ignore (Admit.offer a j)
          done;
          ignore (Admit.take_batch a))
    in
    per_frame *. float_of_int (Array.length sizes)
    /. float_of_int (max 1 (Array.fold_left ( + ) 0 sizes))
  in
  let rcache_find_ns =
    let cacheable_reads = only cacheable in
    median_ns ~reps:5 (fun () ->
        let c = Rcache.create () in
        Array.iter
          (fun q ->
            let key = Wire.describe_request q in
            match Rcache.find c ~epoch:0 key with
            | Some _ -> ()
            | None -> Rcache.add c ~epoch:0 key Wire.Pong)
          cacheable_reads)
    /. float_of_int (max 1 (Array.length cacheable_reads))
  in
  let range_of = function Wire.Range { lo; hi } -> (lo, hi) | _ -> (0, 0) in
  let q_of = function Wire.Quantile q -> q | _ -> 0.5 in
  let point_of = function Wire.Point i -> i | _ -> 0 in
  (* Sharded routing: one pass on a fresh router, since its memo state
     depends on the order. *)
  let shard_router, shard_calls = router_over shard_cuts in
  let shard_t0 = now_ns () in
  Array.iter (fun q -> ignore (Shard.eval shard_router q)) reads;
  let shard_total_us = ns_between shard_t0 (now_ns ()) /. 1e3 in
  let memo_lookups = Shard.memo_hits shard_router + Shard.memo_misses shard_router in
  let nreads = float_of_int (max 1 (Array.length reads)) in
  let median_or_nan b = if b.Fbuf.len = 0 then Float.nan else median (Fbuf.to_array b) in
  let metrics =
    [
      ("ladder.serve_ms", ladder_ms);
      ("incremental.refresh_ms", median_or_nan store.refresh_ms);
      ("incremental.full_cut_ms", median_or_nan store.full_cut_ms);
      ("store.ingest_ms", median_or_nan store.ingest_ms);
      ("wire.encode_ns", wire_encode_ns);
      ("wire.decode_ns", wire_decode_ns);
      ("admit.cycle_ns", admit_cycle_ns);
      ( "eval.point_ns",
        per_item points (fun q ->
            sink := !sink +. Synopsis.reconstruct_point syn (point_of q)) );
      ( "eval.range_ns",
        per_item ranges (fun q ->
            let lo, hi = range_of q in
            sink := !sink +. Range_query.range_sum syn ~lo ~hi) );
      ( "eval.quantile_ns",
        per_item quantiles (fun q -> ignore (Quantiles.estimate syn ~q:(q_of q))) );
      ("fusion.plan_ns", median_ns ~reps:201 (fun () -> ignore (Fusion.plan syn)));
      ( "fusion.range_ns",
        per_item ranges (fun q ->
            let lo, hi = range_of q in
            sink := !sink +. Fusion.range_sum plan ~lo ~hi) );
      ( "fusion.quantile_ns",
        per_item quantiles (fun q -> ignore (Fusion.quantile plan ~q:(q_of q))) );
      ("rcache.find_ns", rcache_find_ns);
      ("shard.eval_us", shard_total_us /. nreads);
      ("shard.rpcs_per_req", float_of_int !shard_calls /. nreads);
      ( "shard.memo_hit_ratio",
        if memo_lookups = 0 then 0.
        else float_of_int (Shard.memo_hits shard_router) /. float_of_int memo_lookups );
      ("shard.reads", float_of_int (Array.length reads));
    ]
  in
  ignore (Sys.opaque_identity !sink);
  { metrics; spans = Span.spans [ rec_ ] }

(* The paper's solvers on the workload's own inputs: one exact MinMaxErr
   solve (what a serving start-up runs) and the two multi-dimensional
   schemes on the seed's grid. *)
let core_probe ~seed ~data =
  let grid = grid ~seed in
  let time f =
    let t0 = now_ns () in
    let v = f () in
    (v, ms_since t0)
  in
  let mm, mm_ms = time (fun () -> Minmax_dp.solve ~data ~budget metric) in
  let md, md_ms =
    time (fun () -> Approx_abs.solve ~data:grid ~budget:grid_budget ~epsilon ())
  in
  let _, add_ms =
    time (fun () ->
        Approx_additive.solve ~data:grid ~budget:grid_budget ~epsilon rel_metric)
  in
  [
    ("core.minmax.solve_ms", mm_ms);
    ("core.minmax.ns_per_state", mm_ms *. 1e6 /. float_of_int mm.dp_states);
    ("core.minmax.states", float_of_int mm.dp_states);
    ("core.md.solve_ms", md_ms);
    ("core.md.ns_per_state", md_ms *. 1e6 /. float_of_int md.dp_states);
    ("core.md.states", float_of_int md.dp_states);
    ("core.additive.solve_ms", add_ms);
  ]
