(* The query server: a single-threaded select loop over a Unix-domain
   socket, answering synopsis queries with deterministic replies.

   Determinism is the design constraint. Replies are a pure function
   of the loaded synopsis, so two servers over the same data produce
   byte-identical reply streams for the same request schedule — for
   any worker-pool size, because admitted requests are evaluated
   positionally with [Pool.map_chunked]. Admission (the queue bound)
   is per round, and a BATCH frame's sub-requests all land in one
   round, which is what makes overload shedding reproducible: a batch
   of 8 against a bound of 4 sheds exactly the last 4, every time.

   Per connection, replies keep request order: every incoming request
   takes a slot, control requests and sheds fill theirs immediately,
   admitted requests fill theirs when the round's evaluation finishes,
   and slots flush strictly in order. *)

module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Quantiles = Wavesyn_aqp.Quantiles
module Workload = Wavesyn_aqp.Workload
module Profiler = Wavesyn_adaptive.Profiler
module Tiers = Wavesyn_adaptive.Tiers
module Rcache = Wavesyn_adaptive.Rcache
module Validate = Wavesyn_robust.Validate
module Ladder = Wavesyn_robust.Ladder
module Deadline = Wavesyn_robust.Deadline
module Fault = Wavesyn_robust.Fault
module Journal = Wavesyn_robust.Journal
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor
module Incremental = Wavesyn_robust.Incremental
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Pool = Wavesyn_par.Pool

type ship_source = {
  ship_dir : string;
  ship_seq : int;
  ship_manifest : string;
}

type config = {
  path : string;
  data : float array;
  budget : int;
  metric : Metrics.error_metric;
  epsilon : float;
  queue_bound : int;
  idle_ms : float;
  max_requests : int option;
  ship : ship_source option;
  role : string;
  conn_fault : Fault.t;
  crash_after : int option;
  store : Supervisor.t option;
  recut_every : int;
  cache : bool;
  tiers : int;
  adapt_every : int;
}

let config ?(budget = 8) ?(metric = Metrics.Abs) ?(epsilon = 0.25)
    ?(queue_bound = 64) ?(idle_ms = 30_000.) ?max_requests ?ship
    ?(role = "standalone") ?(conn_fault = Fault.none) ?crash_after ?store
    ?(recut_every = 32) ?(cache = false) ?(tiers = 0) ?(adapt_every = 32)
    ~path data =
  if queue_bound < 1 then
    invalid_arg "Server.config: queue_bound must be at least 1";
  if idle_ms <= 0. then invalid_arg "Server.config: idle_ms must be positive";
  if recut_every < 1 then
    invalid_arg "Server.config: recut_every must be at least 1";
  if tiers < 0 then invalid_arg "Server.config: tiers must not be negative";
  if adapt_every < 1 then
    invalid_arg "Server.config: adapt_every must be at least 1";
  {
    path;
    data;
    budget;
    metric;
    epsilon;
    queue_bound;
    idle_ms;
    max_requests;
    ship;
    role;
    conn_fault;
    crash_after;
    store;
    recut_every;
    cache;
    tiers;
    adapt_every;
  }

type stats = {
  accepted : int;
  requests : int;
  admitted : int;
  shed : int;
  errors : int;
  recuts : int;
  tier : string;
  updates : int;
  bound : float;
}

(* Replication instruments, registered only on servers configured with
   a ship source so a standalone server's stats table is unchanged. *)
type repl_tele = {
  g_role : Metric.gauge;
  c_ship_batches : Metric.counter;
  c_ship_records : Metric.counter;
  c_ship_snapshots : Metric.counter;
  c_handoffs : Metric.counter;
}

(* Write-path instruments (the [update.*] family), registered only on
   servers opened over a live store so a read-only server's stats table
   is unchanged. *)
type upd_tele = {
  c_applied : Metric.counter;
  c_rejected : Metric.counter;
  c_storms : Metric.counter;
  c_storm_deltas : Metric.counter;
  g_seq : Metric.gauge;
}

type t = {
  cfg : config;
  obs : Registry.t;
  trace : Trace.sink option;
  pool : Pool.t;
  admit : int Admit.t;
  on_handoff : (unit -> int) option;
  on_drain : (unit -> unit) option;
  repl : repl_tele option;
  upd : upd_tele option;
  live : Incremental.t option;
  router : Shard.t option;
  profiler : Profiler.t option;
  cache : (string, Wire.reply) Rcache.t option;
  mutable tiers_state : Tiers.t option;
  mutable epoch : int;
      (* result-cache validity epoch: bumped on every event that can
         change what a read returns — the serving synopsis adopted or
         re-cut, a routed write acked — so the cache flushes exactly
         then and its state stays a pure function of the request
         schedule *)
  mutable rounds_seen : int;  (* request-carrying rounds, for cadences *)
  mutable role : string;
  mutable tier_floor : int;
  mutable synopsis : Synopsis.t;
  mutable tier_name : string;
  mutable listen_fd : Unix.file_descr option;
  conns : (int, Conn.t) Hashtbl.t;
  mutable next_id : int;
  mutable running : bool;
  mutable crashed : bool;
  mutable terminated : bool;
  mutable total_requests : int;
  mutable total_errors : int;
  mutable total_accepted : int;
  mutable total_recuts : int;
  mutable total_updates : int;
  mutable bound : float;
  c_accepted : Metric.counter;
  g_open : Metric.gauge;
  c_errors : Metric.counter;
  c_recuts : Metric.counter;
  h_round : Metric.histogram;
  c_kind : Wire.request -> Metric.counter;
}

let with_span t name f =
  match t.trace with None -> f () | Some sink -> Trace.with_span sink name f

let bump_epoch t = t.epoch <- t.epoch + 1

(* Adopt the incremental solver's current answer as the served state. *)
let sync_from_live t live =
  bump_epoch t;
  t.synopsis <- Incremental.synopsis live;
  t.tier_name <- Incremental.tier live;
  t.bound <- Incremental.bound live

(* The journal sequence the pre-cut tiers must have been built at to
   be served: a read-only server's data never moves. *)
let tiers_seq t =
  match t.cfg.store with Some sup -> Supervisor.seq sup | None -> 0

let tiers_data t =
  match t.cfg.store with
  | Some sup -> Wavesyn_stream.Stream_synopsis.current_data (Supervisor.stream sup)
  | None -> t.cfg.data

(* Re-cut the serving synopsis at the ladder tier the current pressure
   allows. No deadline: tier choice is by pressure alone, so the
   synopsis served at a given pressure level is deterministic. With
   fresh pre-cut tiers the re-cut is an O(1) swap to the pre-built
   synopsis for this level; otherwise, over a live store this is a
   {e full} incremental-state re-cut against the stream's current
   data, and a static dataset is re-cut in place. *)
let rec recut t =
  bump_epoch t;
  let level = max (Admit.pressure t.admit) t.tier_floor in
  let top = Admit.top_of_pressure level in
  match t.router with
  | Some r ->
      (* Scatter-gather front-end: no synopsis of its own to cut.
         Broadcast the pressure level so every shard re-cuts to the
         tier this server's OVERLOAD replies advertise. *)
      Shard.retier r level;
      t.tier_name <-
        Ladder.tier_name
          (match top with
          | `Minmax -> Ladder.Minmax
          | `Approx -> Ladder.Approx_additive { epsilon = t.cfg.epsilon }
          | `Greedy -> Ladder.Greedy_maxerr);
      t.total_recuts <- t.total_recuts + 1;
      Metric.incr t.c_recuts
  | None -> route_free_recut t ~level ~top

(* Pre-cut fast path: a tier set built at the current journal sequence
   serves this pressure level by an O(1) swap. A stale set (the store
   moved since it was built) never serves — the plain re-cut below
   runs instead, and the set is replaced at the next adapt cadence. *)
and tier_swap t ~level =
  match t.tiers_state with
  | Some ts when Tiers.fresh ts ~seq:(tiers_seq t) ->
      let e = Tiers.select ts ~level in
      t.synopsis <- e.Tiers.e_synopsis;
      t.tier_name <- e.Tiers.e_name;
      t.bound <- e.Tiers.e_bound;
      t.total_recuts <- t.total_recuts + 1;
      Metric.incr t.c_recuts;
      true
  | _ -> false

and route_free_recut t ~level ~top =
  if tier_swap t ~level then ()
  else
  match t.live with
  | Some live -> (
      match
        with_span t "server.recut" @@ fun () ->
        Incremental.full_cut ~top live
          (Supervisor.stream (Option.get t.cfg.store))
      with
      | Ok _ ->
          sync_from_live t live;
          t.total_recuts <- t.total_recuts + 1;
          Metric.incr t.c_recuts
      | Error _ -> ())
  | None -> (
      match
        with_span t "server.recut" @@ fun () ->
        Ladder.serve ~epsilon:t.cfg.epsilon ~top ~data:t.cfg.data
          ~budget:t.cfg.budget t.cfg.metric
      with
      | Ok served ->
          t.synopsis <- served.Ladder.synopsis;
          t.tier_name <- Ladder.tier_name served.Ladder.tier;
          t.total_recuts <- t.total_recuts + 1;
          Metric.incr t.c_recuts
      | Error _ ->
          (* Every tier failed (cannot happen for finite data: the
             greedy floor is total); keep serving the previous
             synopsis. *)
          ())

(* (Re)build the pre-cut tier ladder from the observed query mix (the
   default mix until the profiler has seen anything), at the store's
   current data and sequence. Never installed behind a router — a
   scatter-gather front-end owns no synopsis to pre-cut. *)
let rebuild_tiers t =
  if t.cfg.tiers > 0 && t.router = None then
    let mix =
      match t.profiler with
      | Some p when Profiler.total p > 0 -> Profiler.observed p
      | _ -> Workload.default_mix
    in
    match
      with_span t "server.precut" @@ fun () ->
      Tiers.build ~epsilon:t.cfg.epsilon ~metric:t.cfg.metric
        ~data:(tiers_data t) ~budget:t.cfg.budget ~levels:t.cfg.tiers ~mix
        ~seq:(tiers_seq t)
    with
    | Ok ts -> t.tiers_state <- Some ts
    | Error _ -> t.tiers_state <- None

let role_gauge_value = function
  | "primary" -> 0.
  | "follower" -> 1.
  | _ -> -1.

let create ?obs ?trace ?pool ?on_handoff ?on_drain ?router cfg =
  let obs = match obs with Some r -> r | None -> Registry.create () in
  let pool =
    match pool with Some p -> p | None -> Pool.create ~domains:1 ()
  in
  let kind_counter =
    let make kind =
      Registry.counter obs ~help:"requests received, by kind"
        ~unit_:"requests" ~labels:[ ("kind", kind) ] "server.requests"
    in
    let ping = make "ping" and point = make "point" and range = make "range"
    and quantile = make "quantile" and stats = make "stats"
    and batch = make "batch" and shutdown = make "shutdown"
    and sync = make "sync" and handoff = make "handoff"
    and update = make "update" and ingest = make "ingest"
    and retier = make "retier" in
    function
    | Wire.Ping -> ping
    | Wire.Point _ -> point
    | Wire.Range _ -> range
    | Wire.Quantile _ -> quantile
    | Wire.Stats -> stats
    | Wire.Batch _ -> batch
    | Wire.Shutdown -> shutdown
    | Wire.Sync _ -> sync
    | Wire.Handoff -> handoff
    | Wire.Update _ -> update
    | Wire.Ingest _ -> ingest
    | Wire.Retier _ -> retier
  in
  let repl =
    match cfg.ship with
    | None -> None
    | Some _ ->
        let g_role =
          Registry.gauge obs
            ~help:"serving role: 0 primary, 1 follower, -1 standalone"
            ~unit_:"role" "server.role"
        in
        Metric.set g_role (role_gauge_value cfg.role);
        Some
          {
            g_role;
            c_ship_batches =
              Registry.counter obs ~help:"journal batches shipped to SYNC"
                ~unit_:"batches" "server.ship.batches";
            c_ship_records =
              Registry.counter obs ~help:"journal records shipped to SYNC"
                ~unit_:"records" "server.ship.records";
            c_ship_snapshots =
              Registry.counter obs
                ~help:"snapshot bootstraps shipped to SYNC" ~unit_:"snapshots"
                "server.ship.snapshots";
            c_handoffs =
              Registry.counter obs ~help:"HANDOFF promotions acknowledged"
                ~unit_:"handoffs" "server.handoffs";
          }
  in
  let upd =
    match cfg.store with
    | None -> None
    | Some sup ->
        Some
          {
            c_applied =
              Registry.counter obs ~help:"point updates journaled and applied"
                ~unit_:"updates" "update.applied";
            c_rejected =
              Registry.counter obs
                ~help:"updates rejected (validation or journal failure)"
                ~unit_:"updates" "update.rejected";
            c_storms =
              Registry.counter obs ~help:"INGEST storms accepted"
                ~unit_:"storms" "update.storms";
            c_storm_deltas =
              Registry.counter obs ~help:"deltas applied from INGEST storms"
                ~unit_:"updates" "update.storm.deltas";
            g_seq =
              (let g =
                 Registry.gauge obs
                   ~help:"last durable journal sequence acknowledged"
                   ~unit_:"seq" "update.seq"
               in
               Metric.set g (float_of_int (Supervisor.seq sup));
               g);
          }
  in
  let live =
    match cfg.store with
    | None -> None
    | Some sup ->
        Some
          (Incremental.create ~obs ~full_every:cfg.recut_every
             ~budget:cfg.budget ~metric:cfg.metric ~epsilon:cfg.epsilon
             (Supervisor.stream sup))
  in
  let t =
    {
      cfg;
      obs;
      trace;
      pool;
      admit = Admit.create ~obs ~bound:cfg.queue_bound ();
      on_handoff;
      on_drain;
      repl;
      upd;
      live;
      router;
      (* Adaptive instruments are strictly flag-gated so a server run
         without them registers exactly the historical metric families
         (the stats tables the cram suite pins byte for byte). *)
      profiler = (if cfg.tiers > 0 then Some (Profiler.create ~obs ()) else None);
      cache = (if cfg.cache then Some (Rcache.create ~obs ()) else None);
      tiers_state = None;
      epoch = 0;
      rounds_seen = 0;
      role = cfg.role;
      tier_floor = 0;
      synopsis = Synopsis.make ~n:(Array.length cfg.data) [];
      tier_name = "none";
      listen_fd = None;
      conns = Hashtbl.create 16;
      next_id = 0;
      running = false;
      crashed = false;
      terminated = false;
      total_requests = 0;
      total_errors = 0;
      total_accepted = 0;
      total_recuts = 0;
      total_updates = 0;
      bound = 0.;
      c_accepted =
        Registry.counter obs ~help:"connections accepted" ~unit_:"connections"
          "server.connections.accepted";
      g_open =
        Registry.gauge obs ~help:"connections currently open"
          ~unit_:"connections" "server.connections.open";
      c_errors =
        Registry.counter obs ~help:"error replies sent" ~unit_:"replies"
          "server.errors";
      c_recuts =
        Registry.counter obs ~help:"synopsis re-cuts on pressure change"
          ~unit_:"recuts" "server.recuts";
      h_round =
        Registry.histogram obs ~help:"serving round latency" ~unit_:"ms"
          "server.round.ms";
      c_kind = kind_counter;
    }
  in
  (* Over a live store the initial full cut already ran inside
     [Incremental.create]; adopt it instead of cutting twice. *)
  (match t.live with Some live -> sync_from_live t live | None -> recut t);
  (* A cached sharded front-end also memoises sub-range sums inside
     the router, so a QUANTILE bisection's repeated prefix probes skip
     their shard RPCs (see Shard.set_cache for why this preserves
     replies). *)
  (match (router, cfg.cache) with
  | Some r, true -> Shard.set_cache r ~cap:4096
  | _ -> ());
  (* The initial tier set is cut from the default mix (nothing has
     been observed yet) and adopted immediately, so a --tiers server
     serves a pre-cut synopsis from its first request on. *)
  rebuild_tiers t;
  (match t.tiers_state with Some _ -> recut t | None -> ());
  t

(* The STATS body: this server's own table, plus — behind a router —
   every shard's table under a shard header, in shard-index order. *)
let stats_text t =
  let own = Registry.render_table t.obs in
  match t.router with
  | None -> own
  | Some r -> own ^ Shard.stats_sections r

let stats t =
  {
    accepted = t.total_accepted;
    requests = t.total_requests;
    admitted = Admit.admitted_total t.admit;
    shed = Admit.shed_total t.admit;
    errors = t.total_errors;
    recuts = t.total_recuts;
    tier = t.tier_name;
    updates = t.total_updates;
    bound = t.bound;
  }

let registry t = t.obs

(* --- query evaluation (pure reads of the serving synopsis) --- *)

let eval_one t req =
  let n = Synopsis.n t.synopsis in
  match req with
  | Wire.Point i ->
      if i < 0 || i >= n then
        Wire.Error
          {
            code = Wire.Out_of_range;
            message = Printf.sprintf "cell %d outside domain [0, %d]" i (n - 1);
          }
      else Wire.Value (Synopsis.reconstruct_point t.synopsis i)
  | Wire.Range { lo; hi } -> (
      match Range_query.range_sum t.synopsis ~lo ~hi with
      | v -> Wire.Value v
      | exception Invalid_argument _ ->
          Wire.Error
            {
              code = Wire.Out_of_range;
              message =
                Printf.sprintf "range [%d, %d] invalid over domain [0, %d]" lo
                  hi (n - 1);
            })
  | Wire.Quantile q -> (
      match Quantiles.estimate t.synopsis ~q with
      | pos -> Wire.Quantile_pos pos
      | exception Invalid_argument reason ->
          let code =
            if q >= 0. && q <= 1. then Wire.Unanswerable
            else Wire.Out_of_range
          in
          Wire.Error { code; message = reason })
  | Wire.Ping | Wire.Stats | Wire.Batch _ | Wire.Shutdown | Wire.Sync _
  | Wire.Handoff | Wire.Update _ | Wire.Ingest _ | Wire.Retier _ ->
      Wire.Error { code = Wire.Internal; message = "not an admitted kind" }

(* --- the result cache (RANGE / QUANTILE replies, epoch-guarded) --- *)

(* Keys are the canonical request text, so two requests hit the same
   entry exactly when their wire forms coincide. Only successful
   replies are stored: errors are cheap to recompute and overload
   replies are round state, not synopsis state. *)
let cacheable_req = function
  | Wire.Range _ | Wire.Quantile _ -> true
  | _ -> false

let cacheable_reply = function
  | Wire.Value _ | Wire.Quantile_pos _ -> true
  | _ -> false

let cache_find t req =
  match t.cache with
  | Some c when cacheable_req req ->
      Rcache.find c ~epoch:t.epoch (Wire.describe_request req)
  | _ -> None

let cache_store t req reply =
  match t.cache with
  | Some c when cacheable_req req && cacheable_reply reply ->
      Rcache.add c ~epoch:t.epoch (Wire.describe_request req) reply
  | _ -> ()

(* --- the serving round --- *)

type slot = { s_conn : Conn.t; mutable s_reply : Wire.reply option }

let overload_reply t =
  Wire.Overload
    {
      bound = Admit.bound t.admit;
      depth = Admit.depth t.admit;
      tier = t.tier_name;
    }

let count_error t = function
  | Wire.Error _ ->
      t.total_errors <- t.total_errors + 1;
      Metric.incr t.c_errors
  | _ -> ()

(* Answer a SYNC by shipping journal records from the store's WAL. A
   cursor that fell behind compaction (or a torn tail the batch reader
   cannot bridge) falls back to shipping the newest verified snapshot,
   from which the follower re-SYNCs. [max = 0] is the seq probe: no
   records move, the reply just states the authoritative sequence. *)
let max_ship_records = 256

let sync_reply t ~since ~max =
  match t.cfg.ship with
  | None ->
      Wire.Error
        {
          code = Wire.Unanswerable;
          message = "no ship source: server was not started from a store";
        }
  | Some src ->
      (* Over a live store the authoritative sequence moves with every
         write; a static snapshot of it would strand followers behind
         the storm they are replicating. *)
      let ship_seq =
        match t.cfg.store with
        | Some sup -> Supervisor.seq sup
        | None -> src.ship_seq
      in
      if max = 0 || since >= ship_seq then
        Wire.Ship
          {
            last_seq = ship_seq;
            complete = true;
            manifest = src.ship_manifest;
            body = Wire.Ship_none;
          }
      else begin
        match
          Journal.ship ~dir:src.ship_dir ~since ~seq:ship_seq
            ~max:(min max max_ship_records) ()
        with
        | Ok batch ->
            (match t.repl with
            | Some r ->
                Metric.incr r.c_ship_batches;
                Metric.incr ~by:(List.length batch.Journal.b_records)
                  r.c_ship_records
            | None -> ());
            Wire.Ship
              {
                last_seq = batch.Journal.b_last_seq;
                complete = batch.Journal.b_complete;
                manifest = src.ship_manifest;
                body = Wire.Ship_records (Journal.encode_batch batch);
              }
        | Error err -> (
            match Snapshot.read_latest ~dir:src.ship_dir with
            | Ok { Snapshot.state = Some state; _ }
              when state.Snapshot.seq > since
                   && String.length (Snapshot.encode state)
                      <= Wire.max_payload - 256 ->
                (match t.repl with
                | Some r -> Metric.incr r.c_ship_snapshots
                | None -> ());
                Wire.Ship
                  {
                    last_seq = ship_seq;
                    complete = state.Snapshot.seq = ship_seq;
                    manifest = src.ship_manifest;
                    body =
                      Wire.Ship_snapshot (Snapshot.seal (Snapshot.encode state));
                  }
            | Ok _ | Error _ ->
                (* No snapshot bridges the gap: surface the shipping
                   error itself (split brain, compacted range with no
                   verified snapshot, torn tail) for the operator. *)
                Wire.Error
                  { code = Wire.Unanswerable; message = Validate.to_string err })
      end

(* --- the write path (UPDATE / INGEST over a live store) --- *)

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* Map a store-side rejection onto the wire. Deliberately built from
   the token and reason alone — never [Validate.to_string], whose
   line numbers and paths depend on how many updates this process has
   acked, which would break transcript byte-identity across a
   crash/recover boundary. *)
let wire_error_of_validate err =
  match err with
  | Validate.Bad_value { token; reason; _ } ->
      let code =
        if contains_sub reason "domain" then Wire.Out_of_range
        else Wire.Bad_request
      in
      Wire.Error { code; message = Printf.sprintf "%s: %s" token reason }
  | Validate.Bad_option { reason; _ } ->
      Wire.Error { code = Wire.Unanswerable; message = reason }
  | err -> Wire.Error { code = Wire.Internal; message = Validate.to_string err }

(* One accepted delta: journal-before-apply through the supervisor,
   then mark the incremental solver's dirty set. *)
let apply_one t sup ~i ~delta =
  match Supervisor.ingest sup ~i ~delta with
  | Ok seq ->
      (match t.live with
      | Some live -> Incremental.note_update live ~i ~delta
      | None -> ());
      t.total_updates <- t.total_updates + 1;
      (match t.upd with
      | Some u ->
          Metric.incr u.c_applied;
          Metric.set u.g_seq (float_of_int seq)
      | None -> ());
      Ok seq
  | Error err ->
      (match t.upd with Some u -> Metric.incr u.c_rejected | None -> ());
      Error err

(* An INGEST storm is atomic-on-validation: every delta is checked
   against the domain and for finiteness up front, and an invalid one
   rejects the whole storm with nothing applied. Past validation the
   deltas apply in order; only a journal I/O failure can then stop the
   storm mid-way, leaving the applied prefix durable (the error reply
   tells the client its resume cursor is the last ACKED sequence). *)
let storm_reply t sup deltas =
  let n = Wavesyn_stream.Stream_synopsis.n (Supervisor.stream sup) in
  let bad =
    List.find_opt
      (fun (i, d) -> i < 0 || i >= n || not (Float.is_finite d))
      deltas
  in
  match bad with
  | Some (i, d) ->
      (match t.upd with Some u -> Metric.incr u.c_rejected | None -> ());
      if i < 0 || i >= n then
        Wire.Error
          {
            code = Wire.Out_of_range;
            message = Printf.sprintf "%d: cell out of domain [0, %d)" i n;
          }
      else
        Wire.Error
          {
            code = Wire.Bad_request;
            message = Printf.sprintf "%h: not finite (NaN/Inf)" d;
          }
  | None ->
      let rec go last = function
        | [] -> Wire.Acked { seq = last }
        | (i, delta) :: tl -> (
            match apply_one t sup ~i ~delta with
            | Ok seq -> go seq tl
            | Error err -> wire_error_of_validate err)
      in
      let reply = go (Supervisor.seq sup) deltas in
      (match (reply, t.upd) with
      | Wire.Acked _, Some u ->
          Metric.incr u.c_storms;
          Metric.incr ~by:(List.length deltas) u.c_storm_deltas
      | _ -> ());
      reply

(* Apply the round's staged writes in arrival order. Runs only after
   the crash check passed: a crashed round journals {e nothing}, so a
   client resending its unanswered write frames after recovery cannot
   double-apply — exactly-once lands on the at-most-once journal. The
   serving synopsis then folds in the dirty subtrees (or takes the
   cadenced full re-cut) before any of the round's reads evaluate. *)
let routed_writes t r writes =
  List.iter
    (fun (slot, req) ->
      let reply = Shard.write r req in
      (match (reply, req) with
      | Wire.Acked _, Wire.Update _ ->
          t.total_updates <- t.total_updates + 1;
          bump_epoch t
      | Wire.Acked _, Wire.Ingest deltas ->
          t.total_updates <- t.total_updates + List.length deltas;
          bump_epoch t
      | _ -> ());
      count_error t reply;
      slot.s_reply <- Some reply)
    writes

let apply_writes t writes =
  match (writes, t.router) with
  | [], _ -> ()
  | writes, Some r -> routed_writes t r writes
  | writes, None ->
      let sup =
        match t.cfg.store with Some s -> s | None -> assert false
      in
      let before = t.total_updates in
      List.iter
        (fun (slot, req) ->
          let reply =
            match req with
            | Wire.Update { i; delta } -> (
                match apply_one t sup ~i ~delta with
                | Ok seq -> Wire.Acked { seq }
                | Error err -> wire_error_of_validate err)
            | Wire.Ingest deltas -> storm_reply t sup deltas
            | _ -> Wire.Error { code = Wire.Internal; message = "not a write" }
          in
          count_error t reply;
          slot.s_reply <- Some reply)
        writes;
      if t.total_updates > before then (
        match t.live with
        | Some live ->
            let stream = Supervisor.stream sup in
            (if Incremental.due_full live then
               let top =
                 Admit.top_of_pressure
                   (max (Admit.pressure t.admit) t.tier_floor)
               in
               ignore (Incremental.full_cut ~top live stream)
             else Incremental.refresh live stream);
            sync_from_live t live
        | None -> ())

let process_request t ~(slots : slot list ref) ~evals ~writes conn request =
  t.total_requests <- t.total_requests + 1;
  Metric.incr (t.c_kind request);
  let push reply =
    count_error t reply;
    slots := { s_conn = conn; s_reply = Some reply } :: !slots
  in
  let admit request =
    (* The profiler observes the queryable stream itself — shed
       requests included: the mix that overloads the server is exactly
       the one the next tier rebuild should adapt to. A selectivity
       query travels as its RANGE sum, so it is observed as one. *)
    (match t.profiler with
    | Some p -> (
        match request with
        | Wire.Point _ -> Profiler.observe p `Point
        | Wire.Range _ -> Profiler.observe p `Range
        | Wire.Quantile _ -> Profiler.observe p `Quantile
        | _ -> ())
    | None -> ());
    let slot = { s_conn = conn; s_reply = None } in
    if Admit.offer t.admit (List.length !evals) then begin
      slots := slot :: !slots;
      evals := (slot, request) :: !evals
    end
    else begin
      slot.s_reply <- Some (overload_reply t);
      slots := slot :: !slots
    end
  in
  (* Writes take a slot now (order!) but are applied only after the
     round's crash check — see [apply_writes]. *)
  let stage_write request =
    match (t.cfg.store, t.router) with
    | None, None ->
        push
          (Wire.Error
             {
               code = Wire.Unanswerable;
               message = "read-only server: no live store";
             })
    | _ ->
        let slot = { s_conn = conn; s_reply = None } in
        slots := slot :: !slots;
        writes := (slot, request) :: !writes
  in
  match request with
  | Wire.Ping -> push Wire.Pong
  | Wire.Stats -> push (Wire.Stats_text (stats_text t))
  | Wire.Shutdown ->
      t.running <- false;
      push Wire.Bye;
      Conn.mark_closing conn
  | Wire.Sync { since; max } -> push (sync_reply t ~since ~max)
  | Wire.Handoff ->
      (* Promotion: flip to primary and acknowledge with the store's
         authoritative sequence, so the client can check it lost no
         acked write across the failover. *)
      let seq =
        match t.on_handoff with
        | Some f -> f ()
        | None -> (
            match t.cfg.store with
            | Some sup ->
                (* Idempotent on an already-primary store. *)
                Supervisor.promote sup;
                Supervisor.seq sup
            | None -> (
                match t.cfg.ship with Some s -> s.ship_seq | None -> 0))
      in
      t.role <- "primary";
      (* A live standby's store may have been caught up — journal
         records shipped straight into the supervisor — behind the
         incremental solver's back while it was a read-only follower.
         Promotion re-cuts from the store's current stream, so the
         sequence this ack carries is exactly the state the promoted
         server serves. *)
      (match t.live with Some _ -> recut t | None -> ());
      (match t.repl with
      | Some r ->
          Metric.set r.g_role (role_gauge_value t.role);
          Metric.incr r.c_handoffs
      | None -> ());
      push (Wire.Handoff_ack { seq; role = t.role })
  | Wire.Batch reqs ->
      List.iter
        (fun r ->
          match r with
          | Wire.Ping -> push Wire.Pong
          | Wire.Stats -> push (Wire.Stats_text (stats_text t))
          | Wire.Point _ | Wire.Range _ | Wire.Quantile _ -> admit r
          | Wire.Update _ -> stage_write r
          | Wire.Batch _ | Wire.Shutdown | Wire.Sync _ | Wire.Handoff
          | Wire.Ingest _ | Wire.Retier _ ->
              push
                (Wire.Error
                   {
                     code = Wire.Bad_request;
                     message = "illegal BATCH entry";
                   }))
        reqs
  | Wire.Retier level ->
      (* Shard control plane: a sharded front-end forwards its own
         pressure here so every shard re-cuts to the tier the
         front-end's OVERLOAD replies advertise. The floor composes
         with local pressure by max, so a shard under its own direct
         overload never serves {e above} what its own admission allows. *)
      t.tier_floor <- max 0 level;
      recut t;
      push Wire.Pong
  | Wire.Update _ | Wire.Ingest _ -> stage_write request
  | Wire.Point _ | Wire.Range _ | Wire.Quantile _ -> admit request

(* Evaluate the round's admitted requests, in arrival order, fanned
   out positionally over the pool — results land back in their slots,
   so per-connection reply order is request order no matter how the
   pool schedules the work.

   The result cache is consulted in a single-threaded pre-pass over
   the round in arrival order (so its hit/miss counters are
   schedule-deterministic), and filled after evaluation, also in
   arrival order. A hit short-circuits {e only} the evaluation: the
   request already took its admission slot, so the shed schedule — and
   with it the pressure trajectory — is byte-identical cache-on vs
   cache-off. *)
let evaluate_round t evals =
  ignore (Admit.take_batch t.admit);
  let evals = List.rev evals in
  match t.router with
  | Some r ->
      (* Scatter-gather is synchronous RPC, not pool work: shards are
         walked in shard-index order per request, requests in arrival
         order, so the merged transcript is independent of this
         front-end's [--jobs]. *)
      List.iter
        (fun (slot, req) ->
          let reply =
            match cache_find t req with
            | Some reply -> reply
            | None ->
                let reply = Shard.eval r req in
                cache_store t req reply;
                reply
          in
          count_error t reply;
          slot.s_reply <- Some reply)
        evals
  | None ->
      (* Cache pre-pass: hits fill their slots now; only misses reach
         the pool. *)
      let pending =
        Array.of_list
          (List.filter
             (fun (slot, req) ->
               match cache_find t req with
               | Some reply ->
                   count_error t reply;
                   slot.s_reply <- Some reply;
                   false
               | None -> true)
             evals)
      in
      let replies =
        Pool.map_chunked t.pool (Array.length pending) (fun i ->
            eval_one t (snd pending.(i)))
      in
      (* Fill the slots, and the cache from the fresh results, in
         arrival order. *)
      Array.iteri
        (fun i (slot, req) ->
          count_error t replies.(i);
          slot.s_reply <- Some replies.(i);
          cache_store t req replies.(i))
        pending

(* --- the select loop --- *)

exception Bind_error of Validate.error

let listen_on path =
  let bind_error reason =
    raise (Bind_error (Validate.Io_error { path; reason }))
  in
  let ep =
    match Endpoint.parse path with
    | Ok ep -> ep
    | Error reason -> bind_error reason
  in
  (match ep with
  | Endpoint.Tcp _ -> ()
  | Endpoint.Unix_path p -> (
      (* A stale socket file from a dead server is reclaimed; anything
         else at the path is the operator's file, not ours to unlink. *)
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink p
      | _ -> bind_error "exists and is not a socket"
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()));
  let addr =
    match Endpoint.sockaddr ep with
    | Ok addr -> addr
    | Error reason -> bind_error reason
  in
  let fd = Unix.socket (Endpoint.domain ep) Unix.SOCK_STREAM 0 in
  match
    (match ep with
    | Endpoint.Tcp _ ->
        (* A restart must not lose the port to TIME_WAIT remnants of
           its own previous connections. A port held by a {e live}
           listener still fails the bind (EADDRINUSE) below — as a
           structured error, never a raw [Unix_error]. *)
        Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Endpoint.Unix_path _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 64;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      bind_error (Unix.error_message e)

let accept_ready t listen_fd ~now_ms =
  let rec go () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, peer ->
        (match peer with
        | Unix.ADDR_INET _ -> (
            (* Reply frames are small and latency-bound; a Nagle delay
               on them is pure loss. *)
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | Unix.ADDR_UNIX _ -> ());
        let id = t.next_id in
        t.next_id <- id + 1;
        t.total_accepted <- t.total_accepted + 1;
        Metric.incr t.c_accepted;
        Hashtbl.replace t.conns id
          (Conn.create ~fault:t.cfg.conn_fault ~id ~now_ms fd);
        Metric.set t.g_open (float_of_int (Hashtbl.length t.conns));
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let drop_conn t conn =
  Conn.close conn;
  Hashtbl.remove t.conns (Conn.id conn);
  Metric.set t.g_open (float_of_int (Hashtbl.length t.conns))

let flush_conn t conn =
  match Conn.flush conn with
  | `Drained -> if Conn.closing conn then drop_conn t conn
  | `More -> ()
  | `Peer_gone -> drop_conn t conn

let limit_reached t =
  match t.cfg.max_requests with
  | Some k -> t.total_requests >= k
  | None -> false

let crash_reached t =
  match t.cfg.crash_after with
  | Some k -> t.total_requests >= k
  | None -> false

let crashed t = t.crashed
let drained t = t.terminated

let run_exn t =
  let term = ref false in
  let install signal behaviour =
    try Some (signal, Sys.signal signal behaviour)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let previous =
    [
      (* A peer closing mid-write must surface as EPIPE, not kill the
         process. *)
      install Sys.sigpipe Sys.Signal_ignore;
      (* SIGTERM asks for a graceful drain: finish the round, stop
         accepting, flush queued replies, then let the caller
         checkpoint and exit cleanly. *)
      install Sys.sigterm (Sys.Signal_handle (fun _ -> term := true));
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (function
          | Some (signal, h) -> (
              try Sys.set_signal signal h
              with Invalid_argument _ | Sys_error _ -> ())
          | None -> ())
        previous)
  @@ fun () ->
  let listen_fd = listen_on t.cfg.path in
  t.listen_fd <- Some listen_fd;
  t.running <- true;
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ c -> Conn.close c) t.conns;
      Hashtbl.reset t.conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      match Endpoint.parse t.cfg.path with
      | Ok (Endpoint.Unix_path p) -> (
          try Unix.unlink p with Unix.Unix_error _ -> ())
      | Ok (Endpoint.Tcp _) | Error _ -> ())
  @@ fun () ->
  while t.running do
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let rds = listen_fd :: List.map Conn.fd conns in
    let wrs =
      List.filter_map
        (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None)
        conns
    in
    let readable, writable, _ =
      match Unix.select rds wrs [] 0.1 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now_ms = Deadline.now_ms () in
    let t0 = now_ms in
    if List.memq listen_fd readable then accept_ready t listen_fd ~now_ms;
    (* Gather this round's requests in connection-arrival order. The
       iteration order is the connection id, so rounds are reproducible
       given the request schedule. *)
    let slots = ref [] and evals = ref [] and writes = ref [] in
    let shed_before = Admit.shed_total t.admit in
    let active =
      List.sort
        (fun a b -> compare (Conn.id a) (Conn.id b))
        (List.filter (fun c -> List.memq (Conn.fd c) readable) conns)
    in
    let eof = ref [] in
    List.iter
      (fun conn ->
        let events, status = Conn.read conn ~now_ms in
        List.iter
          (function
            | Conn.Request r -> process_request t ~slots ~evals ~writes conn r
            | Conn.Bad_line reason ->
                t.total_requests <- t.total_requests + 1;
                let reply =
                  Wire.Error { code = Wire.Bad_request; message = reason }
                in
                count_error t reply;
                slots := { s_conn = conn; s_reply = Some reply } :: !slots
            | Conn.Corrupt reason ->
                let reply =
                  Wire.Error { code = Wire.Bad_request; message = reason }
                in
                count_error t reply;
                slots := { s_conn = conn; s_reply = Some reply } :: !slots;
                Conn.mark_closing conn)
          events;
        if status = `Eof then eof := conn :: !eof)
      active;
    if crash_reached t then begin
      (* Simulated kill: the round's requests are never evaluated,
         applied or answered — pending replies die with the "process"
         and staged writes never reach the journal, exactly as a real
         crash would lose them. Unanswered write frames are therefore
         safe (and necessary) for the client to resend after
         recovery. *)
      t.crashed <- true;
      t.running <- false
    end
    else begin
      apply_writes t (List.rev !writes);
      (if !evals <> [] then
         with_span t "server.round" @@ fun () -> evaluate_round t !evals);
      let shed = Admit.shed_total t.admit - shed_before in
      (* Flush every filled slot in per-connection request order. *)
      List.iter
        (fun slot ->
          match slot.s_reply with
          | Some reply -> Conn.queue_reply slot.s_conn reply
          | None -> ())
        (List.rev !slots);
      List.iter
        (fun conn ->
          if Conn.wants_write conn || List.memq (Conn.fd conn) writable then
            flush_conn t conn)
        (List.sort (fun a b -> compare (Conn.id a) (Conn.id b)) conns);
      (* EOF connections leave after their replies are flushed. *)
      List.iter
        (fun conn ->
          if Hashtbl.mem t.conns (Conn.id conn) then drop_conn t conn)
        !eof;
      (* Idle connections are reaped quietly. *)
      Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
      |> List.iter (fun c ->
             if Conn.idle_exceeded c ~now_ms ~idle_ms:t.cfg.idle_ms then
               drop_conn t c);
      (* Only rounds that carried requests advance the pressure state:
         idle select timeouts are invisible to it, so the pressure
         trajectory — and with it every OVERLOAD reply and re-cut — is a
         pure function of the request schedule, not of timing. *)
      if !slots <> [] then begin
        Metric.observe t.h_round (Deadline.now_ms () -. t0);
        t.rounds_seen <- t.rounds_seen + 1;
        if Admit.note_round t.admit ~shed then recut t;
        (* Adapt cadence: every [adapt_every] request-carrying rounds
           the tier set is re-cut from the mix observed so far, then
           adopted at the current pressure level. Counted in rounds —
           not wall time — so the rebuild schedule is a pure function
           of the request schedule. *)
        if t.cfg.tiers > 0 && t.rounds_seen mod t.cfg.adapt_every = 0
        then begin
          rebuild_tiers t;
          recut t
        end
      end;
      if limit_reached t then t.running <- false;
      if !term then begin
        t.terminated <- true;
        t.running <- false
      end
    end
  done;
  if not t.crashed then begin
    (* Drain: give every connection a short window to receive queued
       replies before the listener goes away. *)
    let deadline = Deadline.now_ms () +. 500. in
    let rec drain () =
      let pending =
        Hashtbl.fold
          (fun _ c acc -> if Conn.wants_write c then c :: acc else acc)
          t.conns []
      in
      if pending <> [] && Deadline.now_ms () < deadline then begin
        (match Unix.select [] (List.map Conn.fd pending) [] 0.05 with
        | _, writable, _ ->
            List.iter
              (fun c -> if List.memq (Conn.fd c) writable then flush_conn t c)
              pending
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drain ()
      end
    in
    drain ();
    (* A SIGTERM-initiated exit runs the caller's checkpoint hook after
       the last reply is out, so acked state is durable before exit. *)
    if t.terminated then Option.iter (fun f -> f ()) t.on_drain
  end

let run t =
  match run_exn t with
  | () -> Ok ()
  | exception Bind_error e -> Error e
