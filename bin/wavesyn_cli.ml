(* wavesyn command-line interface.

   Subcommands:
     generate   emit a synthetic dataset (one value per line)
     decompose  print the Haar transform / resolution table of a dataset
     threshold  build a synopsis with a chosen algorithm and report errors
     query      answer a range-sum query exactly and from a synopsis
     serve      run the durable supervised ingest loop over a store
     recover    rebuild a store's state from snapshots + journal
     stats      inspect a store read-only, or scrape a running server
     server     serve synopsis queries over a Unix-domain socket
     loadgen    drive a server with a seeded, reproducible workload *)

module Haar1d = Wavesyn_haar.Haar1d
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Minmax_dp = Wavesyn_core.Minmax_dp
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Prob_synopsis = Wavesyn_baselines.Prob_synopsis
module Signal = Wavesyn_datagen.Signal
module Prng = Wavesyn_util.Prng
module Validate = Wavesyn_robust.Validate
module Ladder = Wavesyn_robust.Ladder
module Supervisor = Wavesyn_robust.Supervisor
module Engine = Wavesyn_aqp.Engine
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Obs_metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Approx_abs = Wavesyn_core.Approx_abs
module Pool = Wavesyn_par.Pool
module Fault = Wavesyn_robust.Fault
module Wire = Wavesyn_server.Wire
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Loadgen = Wavesyn_server.Loadgen
module Failover = Wavesyn_server.Failover
module Replica = Wavesyn_server.Replica
module Endpoint = Wavesyn_server.Endpoint
module Shard = Wavesyn_server.Shard

open Cmdliner

(* --- shared data-source arguments --- *)

(* Untrusted input never surfaces as an uncaught exception: validation
   errors print one line on stderr and exit with the structured error's
   code (2 usage, 65 bad data, 66 unreadable input). *)
let die err : 'a =
  prerr_endline ("wavesyn: " ^ Validate.to_string err);
  exit (Validate.exit_code err)

let ok_or_die = function Ok v -> v | Error e -> die e

let generate_named name ~n ~seed =
  let rng = Prng.create ~seed in
  match name with
  | "zipf" -> Signal.zipf ~rng ~n ~alpha:1.2 ~scale:100.
  | "bumps" -> Signal.gaussian_bumps ~rng ~n ~bumps:5 ~amplitude:50.
  | "walk" -> Signal.random_walk ~rng ~n ~step:3.
  | "periodic" -> Signal.noisy_periodic ~rng ~n ~period:(n / 4) ~amplitude:20. ~noise:2.
  | "spikes" -> Signal.spikes ~rng ~n ~count:(Stdlib.max 1 (n / 16)) ~amplitude:60.
  | "steps" -> Signal.piecewise_constant ~rng ~n ~segments:6 ~amplitude:30.
  | "uniform" -> Signal.uniform ~rng ~n ~lo:0. ~hi:100.
  | other ->
      die
        (Validate.Bad_option
           {
             what = Printf.sprintf "--gen %s" other;
             reason =
               "unknown generator (expected zipf, bumps, walk, periodic, \
                spikes, steps or uniform)";
           })

let file_arg =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH"
         ~doc:"Read the dataset from $(docv) (one float per line).")

let gen_arg =
  Arg.(value & opt (some string) None & info [ "gen"; "g" ] ~docv:"NAME"
         ~doc:"Generate a dataset: zipf, bumps, walk, periodic, spikes, steps, uniform.")

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Generated dataset size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let load_data file gen n seed =
  match (file, gen) with
  | Some path, None -> Haar1d.pad_pow2 (ok_or_die (Validate.read_file path))
  | None, Some g -> Haar1d.pad_pow2 (generate_named g ~n ~seed)
  | None, None -> Haar1d.pad_pow2 (generate_named "zipf" ~n ~seed)
  | Some _, Some _ ->
      die
        (Validate.Bad_option
           {
             what = "--file/--gen";
             reason = "pass either --file or --gen, not both";
           })

(* --- shared solver-pool argument --- *)

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Size of the deterministic solver pool (OCaml domains). \
                 Results are bit-identical for every value \
                 (docs/PARALLELISM.md); 1, the default, runs everything on \
                 the calling domain and spawns nothing.")

(* The pool is created even for --jobs 1 (it spawns no domain then) so
   the flag is validated uniformly; solvers only receive it when it can
   actually fan out, keeping the default path byte-identical to the
   sequential code. *)
let pool_of_jobs ?obs jobs =
  if jobs < 1 then
    die
      (Validate.Bad_option { what = "--jobs"; reason = "must be at least 1" });
  Pool.create ?obs ~domains:jobs ()

(* --- generate --- *)

let generate_cmd =
  let run gen n seed =
    let data = generate_named (Option.value ~default:"zipf" gen) ~n ~seed in
    Array.iter (fun x -> Printf.printf "%g\n" x) data
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a synthetic dataset.")
    Term.(const run $ gen_arg $ n_arg $ seed_arg)

(* --- decompose --- *)

let decompose_cmd =
  let table_flag =
    Arg.(value & flag & info [ "table" ] ~doc:"Print the full resolution table.")
  in
  let run file gen n seed table =
    let data = load_data file gen n seed in
    if table then
      List.iter
        (fun row ->
          Printf.printf "resolution %d | averages:" row.Haar1d.resolution;
          Array.iter (Printf.printf " %g") row.Haar1d.averages;
          (match row.Haar1d.details with
          | None -> ()
          | Some d ->
              Printf.printf " | details:";
              Array.iter (Printf.printf " %g") d);
          print_newline ())
        (Haar1d.resolution_table data)
    else
      Array.iter (fun c -> Printf.printf "%g\n" c) (Haar1d.decompose data)
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Print the Haar wavelet transform.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ table_flag)

(* --- threshold --- *)

let algo_arg =
  Arg.(value & opt string "minmax-rel"
       & info [ "algo"; "a" ] ~docv:"ALGO"
           ~doc:"Algorithm: minmax-rel, minmax-abs, approx-abs, l2, \
                 greedy-maxerr, prob-var, prob-bias.")

let budget_arg =
  Arg.(value & opt int 8 & info [ "budget"; "B" ] ~docv:"B" ~doc:"Synopsis budget.")

let sanity_arg =
  Arg.(value & opt float 1.0 & info [ "sanity"; "s" ] ~docv:"S"
         ~doc:"Sanity bound for relative error.")

let build_synopsis ?pool ?(epsilon = 0.25) ~data ~budget ~sanity = function
  | "minmax-rel" ->
      (Minmax_dp.solve ~data ~budget (Metrics.Rel { sanity })).Minmax_dp.synopsis
  | "minmax-abs" -> (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.synopsis
  | "approx-abs" ->
      let _err, syn = Approx_abs.solve_1d ?pool ~data ~budget ~epsilon () in
      syn
  | "l2" -> Greedy_l2.threshold ~data ~budget
  | "greedy-maxerr" -> Greedy_maxerr.threshold ~data ~budget (Metrics.Rel { sanity })
  | "prob-var" ->
      let plan =
        Prob_synopsis.build ~data ~budget Prob_synopsis.Min_rel_var
          (Metrics.Rel { sanity })
      in
      Prob_synopsis.round plan (Prng.create ~seed:1)
  | "prob-bias" ->
      let plan =
        Prob_synopsis.build ~data ~budget Prob_synopsis.Min_rel_bias
          (Metrics.Rel { sanity })
      in
      Prob_synopsis.round plan (Prng.create ~seed:1)
  | other ->
      die
        (Validate.Bad_option
           {
             what = Printf.sprintf "--algo %s" other;
             reason =
               "unknown algorithm (expected minmax-rel, minmax-abs, \
                approx-abs, l2, greedy-maxerr, prob-var or prob-bias)";
           })

(* Like [build_synopsis] but also reports the DP's state count for
   --dp-stats ([None] for non-DP algorithms). The counts are pinned in
   docs/KERNELS.md and checked by cram/kernels.t. *)
let build_synopsis_stats ?pool ?(epsilon = 0.25) ~data ~budget ~sanity algo =
  match algo with
  | "minmax-rel" | "minmax-abs" ->
      let metric =
        if algo = "minmax-abs" then Metrics.Abs else Metrics.Rel { sanity }
      in
      let r = Minmax_dp.solve ~data ~budget metric in
      (r.Minmax_dp.synopsis, Some (r.Minmax_dp.dp_states, None))
  | "approx-abs" ->
      let n = Array.length data in
      let nd = Wavesyn_util.Ndarray.of_flat_array ~dims:[| n |] data in
      let r = Approx_abs.solve ?pool ~data:nd ~budget ~epsilon () in
      let syn = Synopsis.make ~n (Synopsis.Md.coeffs r.Approx_abs.synopsis) in
      (syn, Some (r.Approx_abs.dp_states, Some r.Approx_abs.sweeps))
  | other -> (build_synopsis ?pool ~epsilon ~data ~budget ~sanity other, None)

let metric_of_minmax_algo ~sanity ~flag algo =
  match algo with
  | "minmax-abs" -> Metrics.Abs
  | "minmax-rel" -> Metrics.Rel { sanity }
  | other ->
      die
        (Validate.Bad_option
           {
             what = flag;
             reason =
               Printf.sprintf
                 "requires a minmax algorithm (minmax-rel or minmax-abs), \
                  got %s"
                 other;
           })

let threshold_cmd =
  let target_arg =
    Arg.(value & opt (some float) None
         & info [ "target" ] ~docv:"ERR"
             ~doc:"Instead of a fixed budget, find the smallest budget whose \
                   optimal maximum error is at most $(docv) (minmax algorithms only).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Write the synopsis to $(docv).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Bound the build: serve through the degradation ladder, \
                   giving the exact DP at most half of $(docv) milliseconds \
                   before falling back to the approximation scheme and then \
                   the greedy heuristic (implies $(b,--ladder)).")
  in
  let ladder_arg =
    Arg.(value & flag
         & info [ "ladder" ]
             ~doc:"Serve through the graceful-degradation ladder \
                   minmax -> approx-additive -> greedy-maxerr and report \
                   which tier answered.")
  in
  let epsilon_arg =
    Arg.(value & opt float 0.25
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Approximation parameter: per-rounding ratio of the \
                   ladder's approximation tier (retried once at twice this \
                   value) and epsilon of the approx-abs algorithm.")
  in
  let write_out syn = function
    | None -> ()
    | Some path -> (
        match open_out path with
        | exception Sys_error reason -> die (Validate.Io_error { path; reason })
        | oc ->
            output_string oc (Synopsis.to_string syn);
            close_out oc;
            Printf.printf "wrote %s\n" path)
  in
  let dp_stats_arg =
    Arg.(value & flag
         & info [ "dp-stats" ]
             ~doc:"Also print the number of dynamic-program states the solve \
                   computed (DP algorithms only; the per-kernel counts are \
                   documented in docs/KERNELS.md).")
  in
  let run file gen n seed algo budget sanity target out deadline_ms ladder
      epsilon jobs dp_stats =
    (if dp_stats then
       match algo with
       | ("minmax-rel" | "minmax-abs" | "approx-abs")
         when not (ladder || deadline_ms <> None) ->
           ()
       | "minmax-rel" | "minmax-abs" | "approx-abs" ->
           die
             (Validate.Bad_option
                {
                  what = "--dp-stats";
                  reason = "cannot be combined with --ladder/--deadline-ms";
                })
       | _ ->
           die
             (Validate.Bad_option
                {
                  what = "--dp-stats";
                  reason =
                    "requires a DP algorithm (minmax-rel, minmax-abs or \
                     approx-abs)";
                }));
    let data = load_data file gen n seed in
    let pool0 = pool_of_jobs jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool0) @@ fun () ->
    let pool = if jobs > 1 then Some pool0 else None in
    if ladder || deadline_ms <> None then begin
      if target <> None then
        die
          (Validate.Bad_option
             {
               what = "--target";
               reason = "cannot be combined with --ladder/--deadline-ms";
             });
      let metric = metric_of_minmax_algo ~sanity ~flag:"--ladder" algo in
      let served =
        ok_or_die (Ladder.serve ?deadline_ms ~epsilon ~data ~budget metric)
      in
      let syn = served.Ladder.synopsis in
      Printf.printf "ladder: tier=%s  budget: %d  retained: %d  N: %d\n"
        (Ladder.tier_name served.Ladder.tier)
        budget (Synopsis.size syn) (Array.length data);
      Printf.printf "attempts: %s\n"
        (Ladder.describe_attempts served.Ladder.attempts);
      let summary =
        Metrics.summary ~sanity ~data ~approx:(Synopsis.reconstruct syn) ()
      in
      Format.printf "errors: %a@." Metrics.pp_summary summary;
      write_out syn out
    end
    else begin
      let syn, stats =
        match target with
        | None -> build_synopsis_stats ?pool ~epsilon ~data ~budget ~sanity algo
        | Some t ->
            let metric = metric_of_minmax_algo ~sanity ~flag:"--target" algo in
            let { Minmax_dp.best; feasible } =
              Minmax_dp.budget_for ?pool ~data ~target:t metric
            in
            if not feasible then
              die
                (Validate.Bad_option
                   {
                     what = "--target";
                     reason =
                       Printf.sprintf
                         "unreachable: even retaining every nonzero \
                          coefficient (budget %d) the maximum error is %g"
                         (Synopsis.size best.Minmax_dp.synopsis)
                         best.Minmax_dp.max_err;
                   });
            (best.Minmax_dp.synopsis, Some (best.Minmax_dp.dp_states, None))
      in
      let approx = Synopsis.reconstruct syn in
      let summary = Metrics.summary ~sanity ~data ~approx () in
      Printf.printf "algorithm: %s  budget: %d  retained: %d  N: %d\n" algo
        budget (Synopsis.size syn) (Array.length data);
      Printf.printf "synopsis: %s\n" (Synopsis.describe syn);
      if dp_stats then begin
        match stats with
        | None ->
            die
              (Validate.Bad_option
                 {
                   what = "--dp-stats";
                   reason =
                     "requires a DP algorithm (minmax-rel, minmax-abs or \
                      approx-abs)";
                 })
        | Some (states, sweeps) ->
            Printf.printf "dp-states: algo=%s n=%d budget=%d states=%d%s\n"
              algo (Array.length data) budget states
              (match sweeps with
              | None -> ""
              | Some s -> Printf.sprintf " sweeps=%d" s)
      end;
      Format.printf "errors: %a@." Metrics.pp_summary summary;
      write_out syn out
    end
  in
  Cmd.v
    (Cmd.info "threshold" ~doc:"Build a synopsis and report its errors.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ algo_arg
          $ budget_arg $ sanity_arg $ target_arg $ out_arg $ deadline_arg
          $ ladder_arg $ epsilon_arg $ jobs_arg $ dp_stats_arg)

(* --- evaluate --- *)

let synopsis_file_arg =
  Arg.(required & opt (some string) None
       & info [ "synopsis" ] ~docv:"PATH" ~doc:"Synopsis file (from threshold --out).")

let evaluate_cmd =
  let run file gen n seed sanity path =
    let data = load_data file gen n seed in
    let ic =
      match open_in path with
      | ic -> ic
      | exception Sys_error reason -> die (Validate.Io_error { path; reason })
    in
    let text =
      match really_input_string ic (in_channel_length ic) with
      | text ->
          close_in ic;
          text
      | exception _ ->
          close_in_noerr ic;
          die (Validate.Io_error { path; reason = "short read" })
    in
    let syn =
      match Synopsis.of_string ~n:(Array.length data) text with
      | syn -> syn
      | exception Failure reason ->
          die (Validate.Bad_shape { what = path; reason })
    in
    let approx = Synopsis.reconstruct syn in
    let summary = Metrics.summary ~sanity ~data ~approx () in
    Printf.printf "synopsis: %d coefficients over %d cells\n" (Synopsis.size syn)
      (Synopsis.n syn);
    Format.printf "errors: %a@." Metrics.pp_summary summary
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate a stored synopsis against a dataset.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ sanity_arg
          $ synopsis_file_arg)

(* --- compare --- *)

let compare_cmd =
  let run file gen n seed budget sanity =
    let data = load_data file gen n seed in
    let algos =
      [ "minmax-rel"; "minmax-abs"; "l2"; "greedy-maxerr"; "prob-var" ]
    in
    Printf.printf "%-14s %5s %10s %10s %10s\n" "algorithm" "size" "max-abs"
      "max-rel" "rms";
    List.iter
      (fun algo ->
        let syn = build_synopsis ~data ~budget ~sanity algo in
        let approx = Synopsis.reconstruct syn in
        let s = Metrics.summary ~sanity ~data ~approx () in
        Printf.printf "%-14s %5d %10.4f %10.4f %10.4f\n" algo
          (Synopsis.size syn) s.Metrics.max_abs s.Metrics.max_rel s.Metrics.rms)
      algos
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all thresholding algorithms on a dataset.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ budget_arg
          $ sanity_arg)

(* --- quantile --- *)

let quantile_cmd =
  let q_arg =
    Arg.(required & pos 0 (some float) None & info [] ~docv:"Q"
           ~doc:"Quantile in [0,1].")
  in
  let run file gen n seed algo budget sanity q =
    let data = load_data file gen n seed in
    let syn = build_synopsis ~data ~budget ~sanity algo in
    (* q is checked first, so an out-of-range (or NaN) q is a usage
       error and a non-positive total a data error. *)
    let answer f =
      match f ~q with
      | pos -> pos
      | exception Invalid_argument reason when q >= 0. && q <= 1. ->
          die (Validate.Bad_shape { what = "quantile"; reason })
      | exception Invalid_argument reason ->
          die (Validate.Bad_option { what = "Q"; reason })
    in
    let est = answer (Wavesyn_aqp.Quantiles.estimate syn) in
    let exact = answer (Wavesyn_aqp.Quantiles.exact data) in
    Printf.printf "q=%g  exact position: %d  estimated: %d  (domain %d)\n" q
      exact est (Array.length data)
  in
  Cmd.v
    (Cmd.info "quantile" ~doc:"Estimate a quantile from a synopsis.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ algo_arg
          $ budget_arg $ sanity_arg $ q_arg)

(* --- query --- *)

(* Remote-mode plumbing shared by query, stats and loadgen
   (docs/SERVING.md). *)

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SOCK"
           ~doc:"Talk to the query server listening on the Unix-domain \
                 socket $(docv) instead of working locally (or \
                 $(b,tcp:HOST:PORT) for a TCP server).")

let connect_tcp_arg =
  Arg.(value & opt (some string) None
       & info [ "connect-tcp" ] ~docv:"HOST:PORT"
           ~doc:"Talk to the query server listening on TCP $(docv) — \
                 shorthand for --connect tcp:$(docv).")

(* One endpoint from the two spellings; [--connect tcp:...] and
   [--connect-tcp ...] are the same thing, so passing both is a usage
   error even when they agree. *)
let merge_connect connect connect_tcp =
  match (connect, connect_tcp) with
  | Some _, Some _ ->
      die
        (Validate.Bad_option
           {
             what = "--connect/--connect-tcp";
             reason = "pass either --connect or --connect-tcp, not both";
           })
  | None, Some host_port -> Some ("tcp:" ^ host_port)
  | connect, None -> connect

let wait_arg =
  Arg.(value & opt float 0.
       & info [ "wait-ms" ] ~docv:"MS"
           ~doc:"Keep retrying the connection for up to $(docv) milliseconds \
                 (covers a server still binding its socket).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Bound every read and write on the server connection by \
                 $(docv) milliseconds; expiry is a structured timeout error \
                 (exit code 75).")

let check_timeout = function
  | Some ms when ms <= 0. ->
      die
        (Validate.Bad_option
           { what = "--timeout-ms"; reason = "must be positive" })
  | _ -> ()

let connect_client ~wait_ms ?timeout_ms path =
  check_timeout timeout_ms;
  ok_or_die (Client.connect ~wait_ms ?timeout_ms path)

(* --- network chaos plumbing (docs/SERVING.md) --- *)

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"KINDS"
           ~doc:"Arm deterministic network fault injection: a comma list \
                 drawn from conn-drop, conn-delay, conn-truncate, \
                 corrupt-frame, blackhole, or $(b,all).")

let chaos_rate_arg =
  Arg.(value & opt float 1.0
       & info [ "chaos-rate" ] ~docv:"P"
           ~doc:"Independent firing probability of each armed fault kind.")

let chaos_seed_arg =
  Arg.(value & opt int 1
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Seed of the chaos plan's PRNG; a run is reproducible from \
                 it.")

let fault_of_chaos ?(allowed = Fault.conn_kinds) ~rate ~seed spec =
  match spec with
  | None -> Fault.none
  | Some s ->
      if rate < 0. || rate > 1. then
        die
          (Validate.Bad_option
             { what = "--chaos-rate"; reason = "must be in [0, 1]" });
      let kinds =
        if String.trim s = "all" then allowed
        else
          List.map
            (fun name ->
              let name = String.trim name in
              match Fault.kind_of_name name with
              | Some k when List.mem k allowed -> k
              | Some _ ->
                  die
                    (Validate.Bad_option
                       {
                         what = "--chaos " ^ name;
                         reason = "not an armable connection fault here";
                       })
              | None ->
                  die
                    (Validate.Bad_option
                       {
                         what = "--chaos " ^ name;
                         reason = "unknown fault kind";
                       }))
            (String.split_on_char ',' s)
      in
      Fault.create ~kinds ~rate ~seed ()

let print_reply = function
  | Wire.Stats_text body -> print_string body
  | reply -> print_endline (Wire.describe_reply reply)

let query_cmd =
  let lo_arg = Arg.(value & pos 0 (some int) None & info [] ~docv:"LO") in
  let hi_arg = Arg.(value & pos 1 (some int) None & info [] ~docv:"HI") in
  let ping_arg =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Liveness probe (server mode only).")
  in
  let point_arg =
    Arg.(value & opt (some int) None
         & info [ "point" ] ~docv:"I"
             ~doc:"Reconstructed value of cell $(docv) (server mode only).")
  in
  let q_arg =
    Arg.(value & opt (some float) None
         & info [ "quantile"; "q" ] ~docv:"Q"
             ~doc:"Position of the $(docv)-quantile (server mode only).")
  in
  let server_stats_arg =
    Arg.(value & flag
         & info [ "server-stats" ]
             ~doc:"Fetch the server's metrics table (server mode only).")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the server to drain and stop (server mode only).")
  in
  let update_arg =
    Arg.(value & opt_all string []
         & info [ "update" ] ~docv:"I:DELTA"
             ~doc:"Live point write cell $(docv) against a live server; \
                   repeated occurrences travel as one INGEST storm \
                   (server mode only).")
  in
  let storm_arg =
    Arg.(value & opt (some string) None
         & info [ "storm" ] ~docv:"PATH"
             ~doc:"Send the update stream in $(docv) (one \"cell delta\" \
                   per line; NaN/Inf refused) as one INGEST storm \
                   (server mode only).")
  in
  let parse_update spec =
    let bad reason =
      die
        (Validate.Bad_option
           { what = Printf.sprintf "--update %s" spec; reason })
    in
    match String.index_opt spec ':' with
    | None -> bad "want I:DELTA"
    | Some k -> (
        let i_s = String.sub spec 0 k in
        let d_s = String.sub spec (k + 1) (String.length spec - k - 1) in
        match int_of_string_opt i_s with
        | Some i when i >= 0 -> (
            match Validate.parse_float ~line:1 d_s with
            | Ok d -> (i, d)
            | Error e -> die e)
        | _ -> bad "bad cell index")
  in
  let run file gen n seed algo budget sanity connect connect_tcp wait_ms
      timeout_ms ping point q server_stats shutdown updates storm lo hi =
    match merge_connect connect connect_tcp with
    | Some path ->
        let write_actions =
          match (updates, storm) with
          | [], _ -> []
          | _ :: _, Some _ ->
              die
                (Validate.Bad_option
                   {
                     what = "--storm";
                     reason = "cannot be combined with --update";
                   })
          | [ one ], None ->
              let i, delta = parse_update one in
              [ Wire.Update { i; delta } ]
          | many, None -> [ Wire.Ingest (List.map parse_update many) ]
        in
        let storm_actions =
          match storm with
          | None -> []
          | Some path ->
              let deltas = ok_or_die (Validate.read_updates path) in
              [ Wire.Ingest (Array.to_list deltas) ]
        in
        let actions =
          List.concat
            [
              (if ping then [ Wire.Ping ] else []);
              (match point with Some i -> [ Wire.Point i ] | None -> []);
              (match q with Some q -> [ Wire.Quantile q ] | None -> []);
              (if server_stats then [ Wire.Stats ] else []);
              (if shutdown then [ Wire.Shutdown ] else []);
              write_actions;
              storm_actions;
              (match (lo, hi) with
              | Some lo, Some hi -> [ Wire.Range { lo; hi } ]
              | _ -> []);
            ]
        in
        let request =
          match actions with
          | [ one ] -> one
          | _ ->
              die
                (Validate.Bad_option
                   {
                     what = "--connect";
                     reason =
                       "pass exactly one of --ping, --point, --q, \
                        --server-stats, --shutdown, --update, --storm \
                        or LO HI";
                   })
        in
        let client = connect_client ~wait_ms ?timeout_ms path in
        Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
        print_reply (ok_or_die (Client.request_one client request))
    | None -> (
        match (lo, hi) with
        | Some lo, Some hi ->
            let data = load_data file gen n seed in
            let syn = build_synopsis ~data ~budget ~sanity algo in
            let exact = Range_query.range_sum_exact data ~lo ~hi in
            let approx = Range_query.range_sum syn ~lo ~hi in
            Printf.printf
              "range [%d, %d]  exact: %g  approx: %g  abs err: %g  rel err: %g\n"
              lo hi exact approx
              (Float.abs (exact -. approx))
              (Float.abs (exact -. approx) /. Float.max (Float.abs exact) 1.)
        | _ ->
            die
              (Validate.Bad_option
                 {
                   what = "LO HI";
                   reason = "both range bounds are required without --connect";
                 }))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer a query from a local synopsis or a running server.")
    Term.(const run $ file_arg $ gen_arg $ n_arg $ seed_arg $ algo_arg
          $ budget_arg $ sanity_arg $ connect_arg $ connect_tcp_arg
          $ wait_arg $ timeout_arg $ ping_arg $ point_arg $ q_arg
          $ server_stats_arg $ shutdown_arg $ update_arg $ storm_arg
          $ lo_arg $ hi_arg)

(* --- serve / recover: the durable supervised store --- *)

let store_arg =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Store directory holding snapshots, journal and manifest.")

let metric_of_name ~sanity = function
  | "abs" -> Metrics.Abs
  | "rel" -> Metrics.Rel { sanity }
  | other ->
      die
        (Validate.Bad_option
           {
             what = Printf.sprintf "--metric %s" other;
             reason = "unknown metric (expected abs or rel)";
           })

let pp_recovery (r : Supervisor.recovery) =
  Printf.printf "recovery: %s\n"
    (Format.asprintf "%a" Supervisor.pp_recovery r)

(* --- metrics exposition plumbing (docs/OBSERVABILITY.md) --- *)

let render_metrics reg = function
  | "table" -> Registry.render_table reg
  | "prom" -> Registry.render_prometheus reg
  | other ->
      die
        (Validate.Bad_option
           {
             what = Printf.sprintf "--metrics-format %s" other;
             reason = "unknown format (expected table or prom)";
           })

(* A file destination is rewritten whole on every dump (latest scrape
   wins); "-" interleaves labelled dumps with the normal output. *)
let dump_metrics ~dest ~format ~label reg =
  let text = render_metrics reg format in
  match dest with
  | "-" -> Printf.printf "--- metrics %s ---\n%s" label text
  | path -> (
      match open_out path with
      | exception Sys_error reason -> die (Validate.Io_error { path; reason })
      | oc ->
          output_string oc text;
          close_out oc)

let serve_cmd =
  let n_arg =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N"
           ~doc:"Domain size of a freshly created store (power of two).")
  in
  let metric_arg =
    Arg.(value & opt string "abs"
         & info [ "metric" ] ~docv:"M" ~doc:"Error metric: abs or rel.")
  in
  let checkpoint_arg =
    Arg.(value & opt int 64
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Snapshot the state every $(docv) accepted updates.")
  in
  let recut_arg =
    Arg.(value & opt int 32
         & info [ "recut-every" ] ~docv:"R"
             ~doc:"Re-cut the served synopsis every $(docv) accepted updates.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Deadline slice for each ladder re-cut.")
  in
  let updates_arg =
    Arg.(value & opt (some string) None
         & info [ "updates"; "u" ] ~docv:"PATH"
             ~doc:"Ingest point updates from $(docv) (one \"cell delta\" pair \
                   per line).")
  in
  let random_arg =
    Arg.(value & opt (some int) None
         & info [ "random" ] ~docv:"M"
             ~doc:"Ingest $(docv) seeded random updates instead of a file.")
  in
  let keep_arg =
    Arg.(value & opt int 3
         & info [ "keep" ] ~docv:"G"
             ~doc:"Snapshot generations retained in the store.")
  in
  let no_fsync_arg =
    Arg.(value & flag
         & info [ "no-fsync" ]
             ~doc:"Skip fsync on journal appends and snapshots (faster, \
                   weaker durability; intended for tests).")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Record the metrics of docs/OBSERVABILITY.md and dump the \
                   exposition to $(docv) ($(b,-) for stdout) when the loop \
                   finishes (and periodically, see \
                   $(b,--metrics-every)).")
  in
  let metrics_every_arg =
    Arg.(value & opt int 0
         & info [ "metrics-every" ] ~docv:"K"
             ~doc:"Also dump the exposition every $(docv) ingested updates \
                   (0, the default, dumps only the final state).")
  in
  let metrics_format_arg =
    Arg.(value & opt string "table"
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Exposition format: table (human) or prom \
                   (Prometheus text).")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record ingest/recut/checkpoint/tier spans (requires \
                   $(b,--metrics)) and print the retained spans at the end.")
  in
  let run store n seed metric_name sanity budget checkpoint_every recut_every
      deadline_ms updates random keep no_fsync metrics metrics_every
      metrics_format trace jobs =
    let metric = metric_of_name ~sanity metric_name in
    (match metrics with
    | Some _ -> ignore (render_metrics (Registry.create ()) metrics_format)
    | None ->
        if trace then
          die
            (Validate.Bad_option
               { what = "--trace"; reason = "requires --metrics" }));
    let obs = Option.map (fun _ -> Registry.create ()) metrics in
    (* The pool's par.* instruments only join the exposition when the
       pool can actually fan out, so the default --jobs 1 exposition
       stays byte-identical to the sequential serve loop's. *)
    let pool =
      pool_of_jobs ?obs:(if jobs > 1 then obs else None) jobs
    in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let trace_sink = if trace then Some (Trace.sink ()) else None in
    let cfg =
      Supervisor.config ~checkpoint_every ~recut_every
        ?recut_deadline_ms:deadline_ms ~keep ~sync:(not no_fsync) ~dir:store ~n
        ~budget metric
    in
    let durable = ok_or_die (Engine.open_store ?obs ?trace:trace_sink cfg) in
    let sup = Engine.store_supervisor durable in
    Printf.printf "serve: store=%s n=%d budget=%d metric=%s\n" store n budget
      metric_name;
    pp_recovery (Supervisor.last_recovery sup);
    let updates =
      match (updates, random) with
      | Some path, None -> ok_or_die (Validate.read_updates path)
      | None, Some m ->
          let rng = Prng.create ~seed in
          Array.init m (fun _ ->
              (Prng.int rng n, float_of_int (Prng.int rng 21 - 10)))
      | None, None ->
          die
            (Validate.Bad_option
               {
                 what = "--updates/--random";
                 reason = "pass one of --updates or --random";
               })
      | Some _, Some _ ->
          die
            (Validate.Bad_option
               {
                 what = "--updates/--random";
                 reason = "pass either --updates or --random, not both";
               })
    in
    Array.iteri
      (fun k (i, delta) ->
        ignore (ok_or_die (Engine.store_ingest durable ~i ~delta));
        match (metrics, obs) with
        | Some dest, Some reg
          when metrics_every > 0 && (k + 1) mod metrics_every = 0 ->
            dump_metrics ~dest ~format:metrics_format
              ~label:(Printf.sprintf "(update %d)" (k + 1))
              reg
        | _ -> ())
      updates;
    (match Supervisor.recut sup with
    | Ok _ | Error _ -> ());
    let stats = Supervisor.stats sup in
    Printf.printf "ingested: %d updates (seq %d)\n" stats.Supervisor.acked
      stats.Supervisor.seq;
    (match Engine.store_close durable with
    | Ok () -> ()
    | Error e ->
        Printf.printf "shutdown checkpoint failed: %s\n" (Validate.to_string e));
    let stats = Supervisor.stats sup in
    Printf.printf "checkpoints: %d (latest generation %s)\n"
      stats.Supervisor.checkpoints
      (match stats.Supervisor.last_generation with
      | Some g -> string_of_int g
      | None -> "none");
    Printf.printf "recuts: %d served, %d degraded, %d rejected\n"
      stats.Supervisor.recuts_served stats.Supervisor.recuts_degraded
      stats.Supervisor.recuts_rejected;
    (match Supervisor.last_served sup with
    | None -> print_endline "served: none"
    | Some s ->
        Printf.printf "served: tier=%s retained=%d guarantee=%g\n"
          (Ladder.tier_name s.Ladder.tier)
          (Synopsis.size s.Ladder.synopsis)
          s.Ladder.max_err);
    (match (metrics, obs) with
    | Some dest, Some reg ->
        dump_metrics ~dest ~format:metrics_format ~label:"(final)" reg
    | _ -> ());
    match trace_sink with
    | None -> ()
    | Some sink ->
        Printf.printf "trace: recorded=%d retained=%d dropped=%d\n"
          (Trace.recorded sink)
          (List.length (Trace.spans sink))
          (Trace.dropped sink);
        print_string (Trace.render sink)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the durable supervised ingest loop over a store.")
    Term.(const run $ store_arg $ n_arg $ seed_arg $ metric_arg $ sanity_arg
          $ budget_arg $ checkpoint_arg $ recut_arg $ deadline_arg
          $ updates_arg $ random_arg $ keep_arg $ no_fsync_arg $ metrics_arg
          $ metrics_every_arg $ metrics_format_arg $ trace_arg $ jobs_arg)

let recover_cmd =
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Deadline for the recovery re-cut.")
  in
  let run store deadline_ms =
    let r = ok_or_die (Engine.recover ?deadline_ms ~dir:store ()) in
    Printf.printf "recovered: store=%s updates=%d seq=%d\n" store
      r.Engine.updates r.Engine.seq;
    pp_recovery r.Engine.recovery;
    Printf.printf "synopsis: tier=%s retained=%d guarantee=%g\n"
      (Ladder.tier_name r.Engine.tier)
      (Synopsis.size (Engine.synopsis r.Engine.engine))
      r.Engine.guarantee
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a store's state from its snapshots and journal.")
    Term.(const run $ store_arg $ deadline_arg)

let stats_cmd =
  let prom_arg =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit Prometheus-format gauges instead of the summary \
                   table.")
  in
  let store_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Store directory holding snapshots, journal and manifest.")
  in
  let run store connect connect_tcp wait_ms timeout_ms prom jobs =
    (* stats is read-only and single-domain today; the flag is validated
       for interface uniformity with threshold/serve. *)
    Pool.shutdown (pool_of_jobs jobs);
    let connect = merge_connect connect connect_tcp in
    let store =
      match (store, connect) with
      | Some _, Some _ ->
          die
            (Validate.Bad_option
               {
                 what = "--store/--connect";
                 reason = "pass either --store or --connect, not both";
               })
      | None, None ->
          die
            (Validate.Bad_option
               {
                 what = "--store/--connect";
                 reason = "pass one of --store or --connect";
               })
      | None, Some path ->
          (* Live server metrics (server.*, and par.* when its pool fans
             out), rendered by the server itself. *)
          if prom then
            die
              (Validate.Bad_option
                 {
                   what = "--prom";
                   reason = "server stats are table-format only";
                 });
          let client = connect_client ~wait_ms ?timeout_ms path in
          Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
          print_reply (ok_or_die (Client.request_one client Wire.Stats));
          exit 0
      | Some store, None -> store
    in
    let r = ok_or_die (Supervisor.recover ~dir:store) in
    let cfg = r.Supervisor.r_config in
    let stream = r.Supervisor.r_stream in
    let updates = Stream_synopsis.updates_seen stream in
    let coefficients = Stream_synopsis.nonzero_count stream in
    if prom then begin
      (* Point-in-time gauges over the recovered state: everything here
         is a pure function of the store's on-disk bytes, so the output
         is deterministic (the cram golden test relies on that). *)
      let reg = Registry.create () in
      let g name ~help ~unit_ v =
        Obs_metric.set (Registry.gauge reg ~help ~unit_ name) v
      in
      g "store.seq" ~help:"highest durable sequence number" ~unit_:"seq"
        (float_of_int r.Supervisor.r_seq);
      g "store.updates" ~help:"updates folded into the recovered state"
        ~unit_:"updates" (float_of_int updates);
      g "store.coefficients"
        ~help:"nonzero coefficients in the recovered state"
        ~unit_:"coefficients" (float_of_int coefficients);
      (match r.Supervisor.r_recovery.Supervisor.generation with
      | Some gen ->
          g "store.checkpoint.generation" ~help:"newest snapshot generation"
            ~unit_:"generation" (float_of_int gen)
      | None -> ());
      Obs_metric.incr ~by:r.Supervisor.r_recovery.Supervisor.replayed
        (Registry.counter reg
           ~help:"journal records replayed at the last open" ~unit_:"records"
           "store.recovery.replayed");
      print_string (Registry.render_prometheus reg)
    end
    else begin
      Printf.printf "store: dir=%s n=%d budget=%d metric=%s epsilon=%g\n"
        store cfg.Supervisor.n cfg.Supervisor.budget
        (match cfg.Supervisor.metric with
        | Metrics.Abs -> "abs"
        | Metrics.Rel _ -> "rel")
        cfg.Supervisor.epsilon;
      Printf.printf "seq: %d\n" r.Supervisor.r_seq;
      Printf.printf "updates: %d\n" updates;
      Printf.printf "coefficients: %d nonzero\n" coefficients;
      pp_recovery r.Supervisor.r_recovery
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Inspect a store read-only, or scrape a running server's \
             metrics.")
    Term.(const run $ store_opt_arg $ connect_arg $ connect_tcp_arg
          $ wait_arg $ timeout_arg $ prom_arg $ jobs_arg)

(* --- server / loadgen: the network serving layer (docs/SERVING.md) --- *)

(* Sharded serving (server --shards / --shard-ranges): the front-end
   spawns one in-process shard server per key range on a derived
   endpoint — TCP base port + 1 + k, or SOCK.shardK — then serves the
   public endpoint through a Shard router over client connections to
   them. In-memory only: each shard cuts its slice of the dataset; a
   per-shard durable store rides behind its own shard server. *)
let shard_endpoint listen k =
  match Endpoint.parse listen with
  | Ok (Endpoint.Tcp { host; port }) ->
      Printf.sprintf "tcp:%s:%d" host (port + 1 + k)
  | _ -> Printf.sprintf "%s.shard%d" listen k

let serve_sharded ~obs ~pool ~listen ~data ~budget ~metric ~epsilon ~queue
    ~idle_ms ?max_requests ~conn_fault ?crash_after ~recut_every ~cache
    ~wait_ms ~jobs ~shards ~shard_ranges () =
  let n = Array.length data in
  let ranges =
    match shard_ranges with
    | Some spec -> (
        match Shard.parse_ranges ~n spec with
        | Ok ranges -> ranges
        | Error reason ->
            die (Validate.Bad_option { what = "--shard-ranges"; reason }))
    | None -> (
        match Shard.split ~n ~shards with
        | Ok ranges -> ranges
        | Error reason ->
            die (Validate.Bad_option { what = "--shards"; reason }))
  in
  (* Build the front-end config first so bad --queue/--idle-ms die
     before any shard domain is spawned. *)
  let cfg =
    match
      Server.config ~budget ~metric ~epsilon ~queue_bound:queue ~idle_ms
        ?max_requests ~conn_fault ?crash_after ~recut_every ~cache
        ~path:listen data
    with
    | cfg -> cfg
    | exception Invalid_argument reason ->
        die (Validate.Bad_option { what = "server"; reason })
  in
  let endpoints = List.mapi (fun k _ -> shard_endpoint listen k) ranges in
  let domains =
    List.map2
      (fun endpoint { Shard.lo; hi } ->
        let slice = Array.sub data lo (hi - lo + 1) in
        Domain.spawn (fun () ->
            let pool = Pool.create ~domains:jobs () in
            Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
            let cfg =
              Server.config ~budget ~metric ~epsilon ~queue_bound:queue
                ~idle_ms ~path:endpoint slice
            in
            match Server.run (Server.create ~pool cfg) with
            | Ok () -> ()
            | Error _ -> ()))
      endpoints ranges
  in
  (* The bounded-retry connect rides out the gap between a shard
     domain's spawn and its bind. *)
  let clients =
    List.map
      (fun endpoint ->
        connect_client ~wait_ms:(Float.max wait_ms 5_000.) endpoint)
      endpoints
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close clients;
      List.iter Domain.join domains)
  @@ fun () ->
  let rpcs =
    Array.of_list (List.map (fun c req -> Client.request c req) clients)
  in
  let router =
    match Shard.router ~n ~ranges rpcs with
    | Ok router -> router
    | Error reason -> die (Validate.Bad_option { what = "--shards"; reason })
  in
  let server = Server.create ~obs ~pool ~router cfg in
  Printf.printf "server: listening on %s n=%d budget=%d queue=%d jobs=%d\n%!"
    listen n budget queue jobs;
  Printf.printf "server: shards=%d ranges=%s\n%!" (List.length ranges)
    (String.concat ","
       (List.map
          (fun { Shard.lo; hi } -> Printf.sprintf "%d-%d" lo hi)
          ranges));
  let result = Server.run server in
  (* Shards outlive the front-end's loop only long enough to be told
     to stop; their sockets close before the summary prints. *)
  Shard.shutdown router;
  ok_or_die result;
  if Server.crashed server then begin
    Printf.printf "server: crashed (simulated kill)\n";
    exit 137
  end;
  if Server.drained server then Printf.printf "server: drained (sigterm)\n";
  let s = Server.stats server in
  Printf.printf
    "server: connections=%d requests=%d admitted=%d shed=%d errors=%d \
     recuts=%d tier=%s\n"
    s.Server.accepted s.Server.requests s.Server.admitted s.Server.shed
    s.Server.errors s.Server.recuts s.Server.tier

let server_cmd =
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"SOCK"
             ~doc:"Unix-domain socket path to listen on (a stale socket \
                   file left by a dead server is replaced), or \
                   $(b,tcp:HOST:PORT) for a TCP listener.")
  in
  let listen_tcp_arg =
    Arg.(value & opt (some string) None
         & info [ "listen-tcp" ] ~docv:"HOST:PORT"
             ~doc:"Listen on TCP $(docv) — shorthand for --listen \
                   tcp:$(docv).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Partition the key domain into $(docv) contiguous \
                   key-range shards (a power of two dividing the domain \
                   size), each served by an in-process shard server on a \
                   derived endpoint (TCP port base+1+k, or SOCK.shardK), \
                   behind this scatter-gather front-end. Merged replies are \
                   byte-identical for any shard count (docs/SERVING.md).")
  in
  let shard_ranges_arg =
    Arg.(value & opt (some string) None
         & info [ "shard-ranges" ] ~docv:"SPEC"
             ~doc:"Explicit shard partition $(b,LO-HI,LO-HI,...) — \
                   inclusive ranges tiling the domain contiguously, each a \
                   power-of-two length. Overrides --shards.")
  in
  let store_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Serve the recovered state of the durable store $(docv); \
                   domain size, budget and metric come from its manifest.")
  in
  let metric_arg =
    Arg.(value & opt string "abs"
         & info [ "metric" ] ~docv:"M" ~doc:"Error metric: abs or rel.")
  in
  let epsilon_arg =
    Arg.(value & opt float 0.25
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Approximation parameter of the ladder's approx tier.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"BOUND"
             ~doc:"Admission queue capacity per serving round; requests \
                   past it are shed with a structured OVERLOAD reply.")
  in
  let idle_arg =
    Arg.(value & opt float 30000.
         & info [ "idle-ms" ] ~docv:"MS"
             ~doc:"Close connections idle for longer than $(docv).")
  in
  let max_requests_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"K"
             ~doc:"Stop after $(docv) request frames (test safety net).")
  in
  let follower_arg =
    Arg.(value & opt (some string) None
         & info [ "follower-of" ] ~docv:"SOCK"
             ~doc:"Run as a warm standby: sync the local $(b,--store) from \
                   the primary server on $(docv) (journal shipping, snapshot \
                   bootstrap when compacted), then serve its state \
                   read-to-promote.")
  in
  let crash_after_arg =
    Arg.(value & opt (some int) None
         & info [ "crash-after" ] ~docv:"K"
             ~doc:"Chaos harness: simulate a crash after $(docv) request \
                   frames — stop without answering, flushing or draining.")
  in
  let checkpoint_arg =
    Arg.(value & opt int 64
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Snapshot (and compact the journal) every $(docv) applied \
                   updates when serving a live store.")
  in
  let no_fsync_arg =
    Arg.(value & flag
         & info [ "no-fsync" ]
             ~doc:"Skip fsync on journal appends and snapshots of a live \
                   store (faster, crash-unsafe — test harnesses only).")
  in
  let recut_every_arg =
    Arg.(value & opt int 32
         & info [ "recut-every" ] ~docv:"K"
             ~doc:"Full ladder re-cut of a live server's synopsis every \
                   $(docv) applied updates; in between, only dirtied \
                   error-tree subtrees are re-solved.")
  in
  let cache_arg =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Enable the deterministic result cache: successful RANGE \
                   and QUANTILE replies are memoised and invalidated exactly \
                   when a write is acked or the synopsis is re-cut, so \
                   transcripts are byte-identical with the cache on or off \
                   (docs/ADAPTIVE.md). Registers the serve.cache.* metrics. \
                   With --shards, also memoises per-shard sub-range sums in \
                   the router.")
  in
  let tiers_arg =
    Arg.(value & opt int 0
         & info [ "tiers" ] ~docv:"L"
             ~doc:"Pre-cut $(docv) ladder levels from the observed query \
                   mix so a pressure change swaps synopses in O(1) instead \
                   of re-cutting; rebuilt every --adapt-every rounds. \
                   Registers the adaptive.* metrics. 0 (the default) serves \
                   the classic re-cut path. Not combinable with --shards.")
  in
  let adapt_every_arg =
    Arg.(value & opt int 32
         & info [ "adapt-every" ] ~docv:"R"
             ~doc:"Rebuild the pre-cut tier set from the observed query mix \
                   every $(docv) request-carrying rounds (with --tiers).")
  in
  let run listen listen_tcp store follower_of file gen n seed metric_name
      sanity budget epsilon queue idle_ms max_requests wait_ms chaos
      chaos_rate chaos_seed crash_after checkpoint_every no_fsync recut_every
      cache tiers adapt_every shards shard_ranges jobs =
    let listen =
      match (listen, listen_tcp) with
      | Some _, Some _ ->
          die
            (Validate.Bad_option
               {
                 what = "--listen/--listen-tcp";
                 reason = "pass either --listen or --listen-tcp, not both";
               })
      | Some endpoint, None -> endpoint
      | None, Some host_port -> "tcp:" ^ host_port
      | None, None ->
          die
            (Validate.Bad_option
               {
                 what = "--listen/--listen-tcp";
                 reason = "a listen endpoint is required";
               })
    in
    if shards < 1 then
      die (Validate.Bad_option { what = "--shards"; reason = "must be at least 1" });
    let obs = Registry.create () in
    (* Matching the serve loop's convention: the pool's par.* metrics
       join the exposition only when it can actually fan out. *)
    let pool = pool_of_jobs ?obs:(if jobs > 1 then Some obs else None) jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let conn_fault =
      fault_of_chaos ~rate:chaos_rate ~seed:chaos_seed chaos
    in
    if shards > 1 || shard_ranges <> None then begin
      (match (store, follower_of) with
      | None, None -> ()
      | _ ->
          die
            (Validate.Bad_option
               {
                 what = "--shards";
                 reason =
                   "sharded serving is in-memory (--file/--gen); a \
                    per-shard store rides behind its own shard server";
               }));
      if tiers > 0 then
        die
          (Validate.Bad_option
             {
               what = "--tiers";
               reason =
                 "a scatter-gather front-end owns no synopsis to pre-cut; \
                  pre-cut tiers are unsharded only";
             });
      serve_sharded ~obs ~pool ~listen ~data:(load_data file gen n seed)
        ~budget ~metric:(metric_of_name ~sanity metric_name) ~epsilon ~queue
        ~idle_ms ?max_requests ~conn_fault ?crash_after ~recut_every ~cache
        ~wait_ms ~jobs ~shards ~shard_ranges ()
    end
    else begin
    let no_file_gen () =
      if file <> None || gen <> None then
        die
          (Validate.Bad_option
             {
               what = "--store";
               reason = "cannot be combined with --file/--gen";
             })
    in
    let follower_sup = ref None in
    let primary_sup = ref None in
    let data, budget, metric, epsilon, ship, role =
      match (follower_of, store) with
      | Some primary, Some dir ->
          no_file_gen ();
          let client = connect_client ~wait_ms primary in
          let sup, scfg, manifest, progress =
            Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
            let _, manifest = ok_or_die (Replica.handshake client) in
            let scfg =
              ok_or_die (Supervisor.config_of_manifest ~dir manifest)
            in
            let sup =
              ok_or_die
                (Supervisor.open_store ~obs ~role:Supervisor.Follower scfg)
            in
            match Replica.sync client sup with
            | Ok progress -> (sup, scfg, manifest, progress)
            | Error e ->
                Supervisor.close sup;
                die e
          in
          Printf.printf
            "follower: synced from %s seq=%d (batches=%d records=%d \
             snapshots=%d)\n"
            primary progress.Replica.final_seq progress.Replica.batches
            progress.Replica.records progress.Replica.snapshots;
          follower_sup := Some sup;
          ( Stream_synopsis.current_data (Supervisor.stream sup),
            scfg.Supervisor.budget,
            scfg.Supervisor.metric,
            scfg.Supervisor.epsilon,
            Some
              {
                Server.ship_dir = dir;
                ship_seq = Supervisor.seq sup;
                ship_manifest = manifest;
              },
            "follower" )
      | Some _, None ->
          die
            (Validate.Bad_option
               {
                 what = "--follower-of";
                 reason = "requires --store for the local replica";
               })
      | None, Some dir ->
          no_file_gen ();
          (* Open the store for writing: this server is live — UPDATE /
             INGEST frames journal through it. Re-cut cadence is owned
             by the server's incremental solver, so the supervisor's
             own ladder cadence is pushed out of the way. *)
          let scfg =
            let r = ok_or_die (Supervisor.recover ~dir) in
            {
              r.Supervisor.r_config with
              Supervisor.checkpoint_every;
              recut_every = max_int;
              sync = not no_fsync;
            }
          in
          let sup = ok_or_die (Supervisor.open_store ~obs scfg) in
          primary_sup := Some sup;
          ( Stream_synopsis.current_data (Supervisor.stream sup),
            scfg.Supervisor.budget,
            scfg.Supervisor.metric,
            scfg.Supervisor.epsilon,
            Some
              {
                Server.ship_dir = dir;
                ship_seq = Supervisor.seq sup;
                ship_manifest = Supervisor.manifest_text scfg;
              },
            "primary" )
      | None, None ->
          ( load_data file gen n seed,
            budget,
            metric_of_name ~sanity metric_name,
            epsilon,
            None,
            "standalone" )
    in
    (* Both a primary's and a follower's store back the server's write
       path: a follower rejects writes until a HANDOFF promotes it. *)
    let live_store =
      match !primary_sup with Some _ as s -> s | None -> !follower_sup
    in
    let cfg =
      match
        Server.config ~budget ~metric ~epsilon ~queue_bound:queue ~idle_ms
          ?max_requests ?ship ~role ~conn_fault ?crash_after ?store:live_store
          ~recut_every ~cache ~tiers ~adapt_every ~path:listen data
      with
      | cfg -> cfg
      | exception Invalid_argument reason ->
          die (Validate.Bad_option { what = "server"; reason })
    in
    let on_handoff =
      Option.map
        (fun sup () ->
          Supervisor.promote sup;
          Supervisor.seq sup)
        !follower_sup
    in
    let on_drain =
      Option.map
        (fun sup () ->
          match Supervisor.checkpoint sup with Ok _ | Error _ -> ())
        live_store
    in
    let server = Server.create ~obs ~pool ?on_handoff ?on_drain cfg in
    Printf.printf "server: listening on %s n=%d budget=%d queue=%d jobs=%d\n%!"
      listen (Array.length data) budget queue jobs;
    (if role <> "standalone" then
       match ship with
       | Some s ->
           Printf.printf "server: role=%s seq=%d\n%!" role s.Server.ship_seq
       | None -> ());
    ok_or_die (Server.run server);
    if Server.crashed server then begin
      (* The simulated kill: drop descriptors without the shutdown
         path, report, and die with a SIGKILL-like status — none of
         the orderly summary (or checkpoint) a live server would
         write. Whatever the journal acked before the kill is exactly
         what recovery replays. *)
      Option.iter Supervisor.crash !follower_sup;
      Option.iter Supervisor.crash !primary_sup;
      Printf.printf "server: crashed (simulated kill)\n";
      exit 137
    end;
    Option.iter Supervisor.close !follower_sup;
    Option.iter
      (fun sup ->
        (match Supervisor.checkpoint sup with Ok _ | Error _ -> ());
        Supervisor.close sup)
      !primary_sup;
    if Server.drained server then
      Printf.printf "server: drained (sigterm)\n";
    let s = Server.stats server in
    Printf.printf
      "server: connections=%d requests=%d admitted=%d shed=%d errors=%d \
       recuts=%d tier=%s\n"
      s.Server.accepted s.Server.requests s.Server.admitted s.Server.shed
      s.Server.errors s.Server.recuts s.Server.tier;
    if s.Server.updates > 0 then
      Printf.printf "server: updates=%d seq=%d bound=%g\n" s.Server.updates
        (match live_store with Some sup -> Supervisor.seq sup | None -> 0)
        s.Server.bound
    end
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Serve synopsis queries over a Unix-domain or TCP socket.")
    Term.(const run $ listen_arg $ listen_tcp_arg $ store_opt_arg
          $ follower_arg $ file_arg $ gen_arg $ n_arg $ seed_arg $ metric_arg
          $ sanity_arg $ budget_arg $ epsilon_arg $ queue_arg $ idle_arg
          $ max_requests_arg $ wait_arg $ chaos_arg $ chaos_rate_arg
          $ chaos_seed_arg $ crash_after_arg $ checkpoint_arg $ no_fsync_arg
          $ recut_every_arg $ cache_arg $ tiers_arg $ adapt_every_arg
          $ shards_arg $ shard_ranges_arg $ jobs_arg)

let loadgen_cmd =
  let connect_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK"
             ~doc:"Unix-domain socket of the server under load (or \
                   $(b,tcp:HOST:PORT) for a TCP server).")
  in
  let requests_arg =
    Arg.(value & opt int 64
         & info [ "requests" ] ~docv:"K" ~doc:"Total requests to send.")
  in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"B"
             ~doc:"Requests per frame; a batch larger than the server's \
                   queue bound demonstrates overload shedding.")
  in
  let mix_arg =
    Arg.(value & opt string "point=4,range=3,quantile=2,ping=1"
         & info [ "mix" ] ~docv:"SPEC"
             ~doc:"Relative request-kind weights, e.g. \
                   point=4,range=3,quantile=2,ping=1,update=2 (update \
                   sends live point writes — needs a server over a \
                   store). The plural keys of the accuracy workload \
                   (points/ranges/selectivities/quantiles) are accepted as \
                   aliases; a selectivity query is sent as its RANGE sum.")
  in
  let hot_arg =
    Arg.(value & opt int 0
         & info [ "hot" ] ~docv:"K"
             ~doc:"Draw every request from a pre-drawn hot set of $(docv) \
                   requests (seeded, so still fully deterministic) instead \
                   of fresh parameters each time — the repeated queries a \
                   server-side result cache ($(b,server --cache)) can hit. \
                   0 (the default) is the historical unrepeated stream.")
  in
  let connections_arg =
    Arg.(value & opt int 1
         & info [ "connections" ] ~docv:"N"
             ~doc:"Open $(docv) connections and interleave frames across \
                   them deterministically (seeded); prints one transcript \
                   CRC per connection. Plain mode only — not combinable \
                   with --failover-to, --chaos or --timeout-ms.")
  in
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "out" ] ~docv:"PATH"
             ~doc:"Write the transcript to $(docv) ($(b,-) for stdout).")
  in
  let failover_arg =
    Arg.(value & opt (some string) None
         & info [ "failover-to" ] ~docv:"SOCK"
             ~doc:"Warm standby to promote (HANDOFF) and fail over to on \
                   the first primary transport failure; the failed frame is \
                   resent, keeping the transcript byte-identical to a \
                   failure-free run.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Dump the client-side metrics table (loadgen.rtt.ms, and \
                   retry.* / client.failover.* when failing over) to \
                   $(docv) ($(b,-) for stdout) after the run.")
  in
  let run connect connect_tcp wait_ms timeout_ms failover_to chaos chaos_rate
      chaos_seed metrics seed requests batch mix hot connections n out =
    check_timeout timeout_ms;
    let connect =
      match merge_connect connect connect_tcp with
      | Some endpoint -> endpoint
      | None ->
          die
            (Validate.Bad_option
               {
                 what = "--connect/--connect-tcp";
                 reason = "the server endpoint is required";
               })
    in
    let mix =
      match Loadgen.mix_of_string mix with
      | Ok m -> m
      | Error reason -> die (Validate.Bad_option { what = "--mix"; reason })
    in
    if connections < 1 then
      die
        (Validate.Bad_option
           { what = "--connections"; reason = "must be at least 1" });
    if
      connections > 1
      && (failover_to <> None || chaos <> None || timeout_ms <> None)
    then
      die
        (Validate.Bad_option
           {
             what = "--connections";
             reason =
               "multi-connection mode is plain only (no --failover-to, \
                --chaos or --timeout-ms)";
           });
    (* Only transcript-preserving kinds may be armed client-side: a
       dropped or torn frame is resent whole, a delay moves no bytes.
       Corruption/blackholing belong on the server (`server --chaos`),
       where the injected failure is what the run measures. *)
    let fault =
      fault_of_chaos
        ~allowed:[ Fault.Conn_drop; Fault.Conn_truncate; Fault.Conn_delay ]
        ~rate:chaos_rate ~seed:chaos_seed chaos
    in
    let oc, close_out_fn =
      match out with
      | "-" -> (stdout, fun () -> ())
      | path -> (
          match open_out path with
          | oc -> (oc, fun () -> close_out oc)
          | exception Sys_error reason ->
              die (Validate.Io_error { path; reason }))
    in
    Fun.protect ~finally:close_out_fn @@ fun () ->
    let obs = Option.map (fun _ -> Registry.create ()) metrics in
    (* The plain path keeps one blocking client, byte-for-byte the old
       behavior; failover/chaos/timeout runs go through the failover
       endpoint. *)
    let plains = ref [] and fo = ref None in
    let rpcs =
      if failover_to = None && chaos = None && timeout_ms = None then begin
        let cs =
          List.init connections (fun _ -> connect_client ~wait_ms connect)
        in
        plains := cs;
        Array.of_list (List.map (fun c req -> Client.request c req) cs)
      end
      else begin
        let f =
          Failover.create ?obs ~wait_ms ?timeout_ms ~fault
            ?standby:failover_to connect
        in
        fo := Some f;
        [| Failover.rpc f |]
      end
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter Client.close !plains;
        Option.iter Failover.close !fo)
    @@ fun () ->
    let msummary =
      match
        Loadgen.run_multi ?obs ~hot ~rpcs ~seed ~requests ~batch ~n ~mix
          ~out:(output_string oc) ()
      with
      | result -> ok_or_die result
      | exception Invalid_argument reason ->
          die (Validate.Bad_option { what = "loadgen"; reason })
    in
    let summary = msummary.Loadgen.totals in
    Printf.printf "loadgen: sent=%d replies=%d overloads=%d errors=%d crc=%s\n"
      summary.Loadgen.sent summary.Loadgen.replies summary.Loadgen.overloads
      summary.Loadgen.errors summary.Loadgen.transcript_crc;
    if connections > 1 then
      Array.iteri
        (fun i crc -> Printf.printf "loadgen: conn=%d crc=%s\n" i crc)
        msummary.Loadgen.connection_crcs;
    (match !fo with
    | Some f when Failover.promoted f ->
        Printf.printf "loadgen: failed over to %s (seq %d)\n"
          (Failover.endpoint f) (Failover.seen_seq f)
    | _ -> ());
    match (metrics, obs) with
    | Some dest, Some reg ->
        dump_metrics ~dest ~format:"table" ~label:"(loadgen)" reg
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a server with a seeded, reproducible workload.")
    Term.(const run $ connect_opt_arg $ connect_tcp_arg $ wait_arg
          $ timeout_arg $ failover_arg $ chaos_arg $ chaos_rate_arg
          $ chaos_seed_arg $ metrics_arg $ seed_arg $ requests_arg
          $ batch_arg $ mix_arg $ hot_arg $ connections_arg $ n_arg $ out_arg)

let main =
  let doc = "Deterministic wavelet thresholding for maximum-error metrics." in
  Cmd.group
    (Cmd.info "wavesyn" ~doc ~version:"1.0.0")
    [ generate_cmd; decompose_cmd; threshold_cmd; evaluate_cmd; compare_cmd;
      query_cmd; quantile_cmd; serve_cmd; recover_cmd; stats_cmd; server_cmd;
      loadgen_cmd ]

let () = exit (Cmd.eval main)
