(* wsbench: one benchmark for wavesyn, end to end and per layer.

     wsbench.exe --cli PATH --workload W --seed N --seconds S --trace 0|1

   [--cli] is the built `wavesyn` executable the serving workloads
   launch. The last line of standard output is the JSON result; every
   line before it is the human-readable report. See README.md. *)

open Common

(* Each workload's one-line rationale, as in BENCHMARK.json; [write] is
   run by hand only (README.md says why). *)
let workloads =
  [
    ( "build",
      "back-to-back exact MinMaxErr and Theorem 3.2/3.4 approximate \
       solves with no server: the only workload where core does \
       nearly all the work" );
    ( "read-cold",
      "read-only server on a Unix socket, one fresh request per \
       frame: evaluation and transport dominate and the result cache \
       only misses" );
    ( "read-hot",
      "the same server fed BATCH frames of 16 from a 512-request hot \
       set that fits the cache: cache hits and batch rounds do the \
       work" );
    ( "write",
      "live store-backed server with fsync on (the durable default) \
       and updates in the mix: journal appends, incremental refresh, \
       full re-cuts" );
    ( "sharded",
      "the read-cold stream against a 2-shard scatter-gather \
       front-end over TCP loopback: routing, per-shard RPCs and the \
       prefix memo" );
  ]

(* Every per-layer metric, with the end-to-end metric and workload it
   should move. *)
let per_layer =
  [
    ("core.minmax.solve_ms", "ms", "p50_ms@build; setup_s@read-cold,read-hot,write; ops_per_s@write");
    ("core.minmax.ns_per_state", "ns", "p50_ms@build; setup_s@read-cold,read-hot,write");
    ("core.minmax.states", "count", "p50_ms@build; setup_s@read-cold,read-hot,write");
    ("core.md.solve_ms", "ms", "p50_ms@build only");
    ("core.md.ns_per_state", "ns", "p50_ms@build only");
    ("core.md.states", "count", "p50_ms@build only");
    ("core.additive.solve_ms", "ms", "p50_ms@build only");
    ("ladder.serve_ms", "ms", "setup_s@read-cold,read-hot,sharded");
    ("incremental.refresh_ms", "ms", "p90_ms@write");
    ("incremental.full_cut_ms", "ms", "ops_per_s@write");
    ("recut.full", "count", "ops_per_s@write");
    ("recut.incremental", "count", "p90_ms@write");
    ("store.ingest_ms", "ms", "p90_ms@write");
    ("store.journal.appends", "count", "p90_ms@write");
    ("store.journal.fsyncs", "count", "p90_ms@write");
    ("update.applied", "count", "ops_per_s@write");
    ("wire.encode_ns", "ns", "p50_ms@read-cold");
    ("wire.decode_ns", "ns", "p50_ms@read-cold");
    ("admit.cycle_ns", "ns", "p50_ms@read-cold");
    ("server.admitted", "count", "ops_per_s@read-cold,read-hot");
    ("server.shed", "count", "success_ratio@read-cold");
    ("server.recuts", "count", "p90_ms@read-cold");
    ("server.round_ms", "ms", "p50_ms@read-cold,sharded");
    ("transport.ping_us", "us", "p50_ms@read-cold,sharded");
    ("eval.point_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("eval.range_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("eval.quantile_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("fusion.plan_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("fusion.range_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("fusion.quantile_ns", "ns", "ops_per_s,p90_ms@read-cold");
    ("rcache.find_ns", "ns", "ops_per_s@read-hot (hits), ops_per_s@read-cold (miss cost)");
    ("rcache.hit_ratio", "ratio", "ops_per_s@read-hot");
    ("rcache.lookups", "count", "base of rcache.hit_ratio");
    ("rcache.invalidations", "count", "ops_per_s@write");
    ("shard.eval_us", "us", "ops_per_s,p90_ms@sharded only");
    ("shard.rpcs_per_req", "ratio", "ops_per_s,p90_ms@sharded only");
    ("shard.memo_hit_ratio", "ratio", "ops_per_s,p90_ms@sharded only");
    ("shard.reads", "count", "base of the shard.* ratios");
    ("trace.overhead_pct", "%", "none: traced minus untraced p50, share of untraced");
  ]

let usage () =
  prerr_endline
    "usage: wsbench.exe --cli PATH --workload W --seed N --seconds S --trace 0|1 \
     [--server-cpu C]";
  exit 2

let parse_args () =
  let cli = ref "" and workload = ref "" and seed = ref None in
  let seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--cli" :: v :: rest -> cli := v; go rest
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--server-cpu" :: v :: rest ->
        (match int_of_string_opt v with Some c -> server_cpu := Some c | None -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, List.assoc_opt !workload workloads) with
  | Some seed, Some _ when !cli <> "" -> (!cli, !workload, seed, !seconds, !trace)
  | _ -> usage ()

let provenance ~workload ~seed =
  let tm = Unix.gmtime (Unix.time ()) in
  note "# wsbench workload=%s seed=%d" workload seed;
  note "# why: %s" (List.assoc workload workloads);
  note "# host: nproc=%d ocaml=%s git=%s date=%04d-%02d-%02dT%02d:%02d:%02dZ"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "WSBENCH_GIT_REV"))
    (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec;
  note "# shape: n=%d B=%d metric=abs clients=%d (closed loop) fsync=%s" n budget
    clients
    (if workload = "write" then "on (durable default)" else "n/a");
  note "# pinning: %s"
    (match !server_cpu with
    | Some c -> Printf.sprintf "server on cpu %d, benchmark and clients on another" c
    | None -> "none")

(* Print and collect in order (list literals evaluate right to left). *)
let e2e rows =
  List.map
    (fun (name, value, unit_, samples) ->
      note "e2e %-14s %14.6g %-6s samples=%d" name value unit_ samples;
      { name; value; unit_ })
    rows

let print_self_times spans =
  List.iter
    (fun (name, calls, total) ->
      note "self %-24s calls=%-8d self_ms=%.3f" name calls (total /. 1e6))
    (Span.self_times spans)

let stats_counters =
  [ "server.admitted"; "server.shed"; "server.recuts"; "serve.cache.hits";
    "serve.cache.misses"; "serve.cache.invalidations"; "recut.full";
    "recut.incremental"; "store.journal.appends"; "store.journal.fsyncs";
    "update.applied" ]

(* Per-layer values read off a STATS table. *)
let from_stats stats =
  let s = Serving.stat stats in
  let lookups = s "serve.cache.hits" +. s "serve.cache.misses" in
  let rounds = s "server.round.ms.count" in
  [
    ("server.admitted", s "server.admitted");
    ("server.shed", s "server.shed");
    ("server.recuts", s "server.recuts");
    ("recut.full", s "recut.full");
    ("recut.incremental", s "recut.incremental");
    ("store.journal.appends", s "store.journal.appends");
    ("store.journal.fsyncs", s "store.journal.fsyncs");
    ("update.applied", s "update.applied");
    ("rcache.hit_ratio", if lookups = 0. then 0. else s "serve.cache.hits" /. lookups);
    ("rcache.lookups", lookups);
    ("rcache.invalidations", s "serve.cache.invalidations");
    ("server.round_ms", if rounds = 0. then 0. else s "server.round.ms.sum" /. rounds);
  ]

let layer_metrics values =
  List.map
    (fun (name, unit_, moves) ->
      match List.assoc_opt name values with
      | Some v when Float.is_finite v ->
          note "layer %-26s %14.6g %-5s moves %s" name v unit_ moves;
          { name; value = v; unit_ }
      | _ -> fail "per-layer metric %s was not measured" name)
    per_layer

let overhead_pct ~untraced ~traced =
  if Array.length untraced = 0 || Array.length traced = 0 then 0.
  else (median traced -. median untraced) /. median untraced *. 100.

(* A small server for the transport and round numbers of the build
   workload, which has no server of its own. *)
let probe_server cli =
  mkdir_p scratch;
  let endpoint = scratch ^ "/probe.sock" in
  let pid, _ =
    Serving.launch ~cli ~log:(scratch ^ "/probe.log") ~endpoint
      [ "server"; "--listen"; endpoint; "--gen"; "zipf"; "-n"; "64"; "-B"; "8";
        "--jobs"; "1"; "--cache" ]
  in
  let ping = Serving.ping_us endpoint in
  let stats = Serving.read_stats endpoint in
  Serving.shutdown pid endpoint;
  (ping, stats)

let write_trace ~workload ~seed spans =
  let dir = ".wsbench-out" in
  mkdir_p dir;
  let path = Printf.sprintf "%s/trace-%s.tsv" dir workload in
  Span.write path spans;
  note "# trace: %d spans of seed %d written to %s" (List.length spans) seed path

let run_build ~cli ~seed ~seconds ~trace =
  let o = Build.run ~seed ~seconds ~trace in
  let rounds = o.rounds_ms in
  note "# build: %d rounds (%d traced), %d solves, err_sum=%.6g" (Array.length rounds)
    (Array.length o.traced_rounds_ms) o.solves o.err_sum;
  let metrics =
    e2e
    [
      ("setup_s", o.setup_s, "s", 51);
      ("ops_per_s", float_of_int o.solves /. o.elapsed_s, "1/s", o.solves);
      ("p50_ms", median rounds, "ms", Array.length rounds);
      ("p90_ms", percentile rounds 0.90, "ms", Array.length rounds);
      ("rss_mb", o.rss_mb, "MB", 1);
      ("err_sum", o.err_sum, "err", 4 * Build.sets);
      ( "success_ratio",
        float_of_int (o.solves - o.failed) /. float_of_int o.solves,
        "ratio",
        o.solves );
    ]
  in
  let metrics =
    if not trace then metrics
    else begin
      (* Per round, the layer's solves summed; median over rounds. *)
      let rounds_of layer f =
        let by_round = Hashtbl.create 16 in
        List.iter
          (fun (t : Build.timing) ->
            if t.solve.layer = layer then
              Hashtbl.replace by_round t.round
                (f t +. Option.value ~default:0. (Hashtbl.find_opt by_round t.round)))
          o.timings;
        median (Array.of_seq (Hashtbl.to_seq_values by_round))
      in
      let solve_ms layer = rounds_of layer (fun t -> t.ms) in
      let states layer = rounds_of layer (fun t -> float_of_int t.states) in
      let core_values =
        [
          ("core.minmax.solve_ms", solve_ms "core.minmax");
          ("core.minmax.states", states "core.minmax");
          ("core.minmax.ns_per_state", solve_ms "core.minmax" *. 1e6 /. states "core.minmax");
          ("core.md.solve_ms", solve_ms "core.md");
          ("core.md.states", states "core.md");
          ("core.md.ns_per_state", solve_ms "core.md" *. 1e6 /. states "core.md");
          ("core.additive.solve_ms", solve_ms "core.additive");
        ]
      in
      let l =
        Layers.measure ~seed ~data:o.data ~spec:(Serving.spec Serving.Read_cold)
          ~kind:`None ~cuts:[] ~per_client:[| 10_000; 10_000 |]
      in
      let ping, stats = probe_server cli in
      let spans = o.spans @ l.spans in
      print_self_times spans;
      write_trace ~workload:"build" ~seed spans;
      layer_metrics
        (core_values @ l.metrics @ from_stats stats
        @ [
            ("transport.ping_us", ping);
            ( "trace.overhead_pct",
              overhead_pct ~untraced:rounds ~traced:o.traced_rounds_ms );
          ])
    end
  in
  (o.failed = 0, o.solves, o.failed, metrics)

(* Throughput and latency are taken per slice of the window and the
   median over slices is reported, so a burst of interference from
   other tenants of the host moves one slice, not the result. *)
let slices = 5

let by_slice ~window at xs f =
  let buckets = Array.make slices [] in
  Array.iteri
    (fun k t ->
      let b = min (slices - 1) (int_of_float (t /. window *. float_of_int slices)) in
      buckets.(b) <- xs.(k) :: buckets.(b))
    at;
  median
    (Array.of_list
       (List.filter_map
          (fun l -> if l = [] then None else Some (f (Array.of_list l)))
          (Array.to_list buckets)))

let kind_of = function
  | "read-cold" -> Serving.Read_cold
  | "read-hot" -> Serving.Read_hot
  | "write" -> Serving.Write
  | _ -> Serving.Sharded

let run_serving ~cli ~workload ~seed ~seconds ~trace =
  let kind = kind_of workload in
  let o = Serving.run ~cli ~kind ~seed ~seconds ~trace in
  let rs = Array.to_list o.results in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let attempted = sum (fun r -> r.Serving.requests) in
  let failed = sum (fun r -> r.failed) and violations = sum (fun r -> r.violations) in
  let cat f = Fbuf.concat (List.map f rs) in
  let rtt = cat (fun r -> r.Serving.rtt_ms) and at = cat (fun r -> r.Serving.at_s) in
  let oks = cat (fun r -> r.Serving.oks) in
  let traced = cat (fun r -> r.Serving.traced_ms) and upd = cat (fun r -> r.Serving.upd_ms) in
  let transport = List.filter_map (fun r -> r.Serving.transport) rs in
  List.iter (fun e -> note "# transport failure: %s" e) transport;
  note "# setup_s per launch: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") o.setup_s)));
  note "# transcript crcs (first %d requests per client): %s  across launches: %s"
    (Serving.spec kind).verify (String.concat "," o.crcs)
    (if o.crc_ok then "identical" else "DIFFER");
  note "# answer check: %d violations in the run, %d of %d cells outside the bound %.6g on read-back"
    violations o.readback_bad n o.bound;
  List.iter
    (fun name -> note "count %-28s %.0f" name (Serving.stat o.stats name))
    stats_counters;
  if Array.length rtt = 0 then fail "no frame completed";
  let window = o.untraced_s in
  if Array.length upd > 0 then begin
    note "e2e %-14s %14.6g %-6s samples=%d (not gated)" "update_p50_ms" (median upd) "ms"
      (Array.length upd);
    note "e2e %-14s %14.6g %-6s samples=%d (not gated)" "update_p99_ms"
      (percentile upd 0.99) "ms" (Array.length upd)
  end;
  note "e2e %-14s %14.6g %-6s samples=%d (not gated)" "p99_ms"
    (by_slice ~window at rtt (fun xs -> percentile xs 0.99)) "ms" (Array.length rtt);
  let ok = attempted - failed in
  let metrics =
    e2e
    [
      ("setup_s", median o.setup_s, "s", Array.length o.setup_s);
      ( "ops_per_s",
        by_slice ~window at oks (fun xs ->
            Array.fold_left ( +. ) 0. xs /. (window /. float_of_int slices)),
        "1/s",
        ok );
      ("p50_ms", by_slice ~window at rtt median, "ms", Array.length rtt);
      ("p90_ms", by_slice ~window at rtt (fun xs -> percentile xs 0.90), "ms",
        Array.length rtt);
      ("rss_mb", o.rss_mb, "MB", 1);
      ("err_sum", o.err_sum, "err", n);
      ( "success_ratio",
        float_of_int ok /. float_of_int (max 1 attempted),
        "ratio",
        attempted );
    ]
  in
  let metrics =
    if not trace then metrics
    else begin
      if Array.length traced > 0 then begin
        note "traced %-14s %14.6g ms samples=%d" "p50_ms" (median traced) (Array.length traced);
        note "traced %-14s %14.6g ms samples=%d" "p99_ms" (percentile traced 0.99)
          (Array.length traced)
      end;
      let lkind =
        match kind with
        | Serving.Sharded -> `Sharded
        | Serving.Write -> `Live
        | _ -> `Unsharded
      in
      let l =
        Layers.measure ~seed ~data:o.data ~spec:(Serving.spec kind) ~kind:lkind
          ~cuts:o.cuts
          ~per_client:(Array.map (fun r -> r.Serving.requests) o.results)
      in
      let core = Layers.core_probe ~seed ~data:o.data in
      let spans = Span.spans (List.map (fun r -> r.Serving.recorder) rs) @ l.spans in
      print_self_times spans;
      write_trace ~workload ~seed spans;
      layer_metrics
        (core @ l.metrics
        @ from_stats o.stats
        @ [
            ("transport.ping_us", o.ping_us);
            ("trace.overhead_pct", overhead_pct ~untraced:rtt ~traced);
          ])
    end
  in
  let correct =
    violations = 0 && o.readback_bad = 0 && o.crc_ok && transport = []
  in
  (correct, attempted, failed, metrics)

let () =
  let cli, workload, seed, seconds, trace = parse_args () in
  at_exit kill_children;
  let outcome =
    try
      provenance ~workload ~seed;
      Ok
        (if workload = "build" then run_build ~cli ~seed ~seconds ~trace
         else run_serving ~cli ~workload ~seed ~seconds ~trace)
    with
    | Bench_failure msg -> Error msg
    | Unix.Unix_error (e, f, a) ->
        Error (Printf.sprintf "%s(%s): %s" f a (Unix.error_message e))
    | e -> Error (Printexc.to_string e)
  in
  kill_children ();
  rm_rf scratch;
  (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
  match outcome with
  | Error msg ->
      prerr_endline ("wsbench: " ^ msg);
      exit 1
  | Ok (correct, attempted, failed, metrics) ->
      print_endline (result_line ~correct ~attempted ~failed metrics)
