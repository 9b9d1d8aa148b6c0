(* Delegations to the one read evaluator, kept for the per-layer
   benchmark's call sites. *)

module Synopsis = Wavesyn_synopsis.Synopsis

type plan = Synopsis.t

let plan syn = syn
let range_sum = Wavesyn_synopsis.Range_query.range_sum
let quantile = Wavesyn_aqp.Quantiles.estimate
