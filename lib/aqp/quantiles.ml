module Synopsis = Wavesyn_synopsis.Synopsis
module Range_query = Wavesyn_synopsis.Range_query

let cumulative syn i = Range_query.range_sum syn ~lo:0 ~hi:i

(* Written so that NaN fails the test too. *)
let check_q q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Quantiles: q must be in [0, 1]"

let bisect ~n ~total ~cumulative ~q =
  let target = q *. total in
  (* Bisection for a crossing of cumulative >= target. The prefix sums
     of a synopsis can dip locally (reconstructed frequencies may be
     negative), in which case this returns one valid crossing. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative mid >= target then hi := mid else lo := mid + 1
  done;
  !lo

let estimate syn ~q =
  check_q q;
  let n = Synopsis.n syn in
  let total = cumulative syn (n - 1) in
  if total <= 0. then invalid_arg "Quantiles: estimated total is not positive";
  bisect ~n ~total ~cumulative:(cumulative syn) ~q

let median syn = estimate syn ~q:0.5

let exact data ~q =
  check_q q;
  let total = Wavesyn_util.Float_util.sum data in
  if total <= 0. then invalid_arg "Quantiles: total is not positive";
  let target = q *. total in
  let acc = ref 0. and result = ref (Array.length data - 1) in
  (try
     Array.iteri
       (fun i x ->
         acc := !acc +. x;
         if !acc >= target then begin
           result := i;
           raise Exit
         end)
       data
   with Exit -> ());
  !result
