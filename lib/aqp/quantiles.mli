(** Quantile estimation over a frequency vector from its wavelet
    synopsis.

    For a relation summarized as a frequency vector, the [q]-quantile
    is the smallest domain value whose cumulative frequency reaches a
    [q] fraction of the total. Cumulative frequencies are prefix range
    sums, which the synopsis answers in O(log N), so a quantile costs
    O(log² N) via binary search — no data access. *)

val cumulative : Wavesyn_synopsis.Synopsis.t -> int -> float
(** Estimated cumulative frequency of domain values [0 .. i]. *)

val bisect :
  n:int -> total:float -> cumulative:(int -> float) -> q:float -> int
(** The bisection behind {!estimate}, over any cumulative function on
    [0 .. n-1]: the position it settles on for the target
    [q *. total], probing [cumulative] at O(log n) midpoints. Checks
    nothing; {!estimate} and the sharded router validate [q] and
    [total] first. *)

val estimate : Wavesyn_synopsis.Synopsis.t -> q:float -> int
(** [estimate syn ~q] with [q] in [[0, 1]]: smallest domain value whose
    estimated cumulative frequency is [>= q * total]. Negative
    reconstructed frequencies are tolerated (estimates are monotonized
    by the binary search on the prefix sums). Raises
    [Invalid_argument] when [q] is outside [[0,1]] (NaN included) or
    the estimated total is not positive. *)

val median : Wavesyn_synopsis.Synopsis.t -> int
(** [estimate ~q:0.5]. *)

val exact : float array -> q:float -> int
(** Reference implementation over the raw frequencies. *)
