(* Key-range sharding: the partition map and the scatter-gather
   router in front of it.

   The domain [0, n) is tiled by contiguous key ranges, one shard per
   range, each shard an ordinary server over its sub-domain (its own
   synopsis, store, journal and solver-pool lane). The router owns no
   synopsis at all: POINT and UPDATE forward to the owning shard with
   the index rebased to shard-local coordinates, RANGE splits into
   per-shard sub-ranges whose answers are summed in shard-index order,
   QUANTILE re-runs the unsharded bisection over composed per-shard
   prefix sums, and INGEST storms split per owner.

   Determinism contract: every fan-out walks the shards in shard-index
   order — never arrival order, there are no concurrent in-flight
   RPCs — so the merged reply stream is a pure function of the request
   schedule and the shard states. On exactly-reconstructing
   configurations (budget at least the sub-domain size, sums exact in
   float arithmetic) the merged answers are byte-identical to the
   unsharded server's over the same data, for any shard count; see
   docs/SERVING.md for the precise statement. *)

module Validate = Wavesyn_robust.Validate
module Rcache = Wavesyn_adaptive.Rcache
module Quantiles = Wavesyn_aqp.Quantiles

type range = { lo : int; hi : int }

type rpc = Wire.request -> (Wire.reply list, Validate.error) result

let is_pow2 k = k > 0 && k land (k - 1) = 0

(* Every range a Haar synopsis can serve: contiguous cover of [0, n),
   nonempty, power-of-two lengths (a shard's sub-domain is itself a
   wavelet domain). *)
let check_ranges ~n ranges =
  if ranges = [] then Error "no shard ranges"
  else
    let rec go expected = function
      | [] ->
          if expected = n then Ok ()
          else
            Error
              (Printf.sprintf
                 "shard ranges cover [0, %d) but the domain is [0, %d)"
                 expected n)
      | { lo; hi } :: rest ->
          if lo <> expected then
            Error
              (Printf.sprintf
                 "shard ranges must tile the domain contiguously: expected \
                  lo %d, got %d"
                 expected lo)
          else if hi < lo then
            Error (Printf.sprintf "empty shard range [%d, %d]" lo hi)
          else if not (is_pow2 (hi - lo + 1)) then
            Error
              (Printf.sprintf
                 "shard range [%d, %d] has length %d, not a power of two" lo
                 hi (hi - lo + 1))
          else go (hi + 1) rest
    in
    go 0 ranges

let split ~n ~shards =
  if shards < 1 then Error "shard count must be at least 1"
  else if not (is_pow2 shards) then
    Error (Printf.sprintf "shard count %d is not a power of two" shards)
  else if shards > n then
    Error (Printf.sprintf "more shards (%d) than cells (%d)" shards n)
  else if n mod shards <> 0 then
    Error (Printf.sprintf "%d shards do not divide the domain %d" shards n)
  else
    let w = n / shards in
    Ok (List.init shards (fun k -> { lo = k * w; hi = ((k + 1) * w) - 1 }))

let parse_ranges ~n spec =
  let parse_one part =
    match String.split_on_char '-' (String.trim part) with
    | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi -> Ok { lo; hi }
        | _ -> Error (Printf.sprintf "bad shard range %S (want LO-HI)" part))
    | _ -> Error (Printf.sprintf "bad shard range %S (want LO-HI)" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse_one part with
        | Ok r -> go (r :: acc) rest
        | Error _ as e -> e)
  in
  match go [] (String.split_on_char ',' spec) with
  | Error _ as e -> e
  | Ok ranges -> (
      match check_ranges ~n ranges with
      | Ok () -> Ok ranges
      | Error _ as e -> e)

(* --- the router --- *)

type t = {
  n : int;
  ranges : range array;
  rpcs : rpc array;
  seqs : int array;
      (* last journal sequence acknowledged by each shard; their sum is
         the global sequence ACKED replies carry, which equals the
         unsharded sequence when every write lands on exactly one
         shard. *)
  mutable level : int;  (* last pressure level broadcast via RETIER *)
  mutable memo : (int * int * int, float) Rcache.t option;
      (* optional sub-range sum memo, keyed (shard, lo, hi) in
         shard-local coordinates; see {!set_cache} *)
  mutable memo_epoch : int;
      (* bumped on every event that can change a shard's synopsis —
         write acks and RETIER broadcasts — so the memo flushes exactly
         then *)
}

let router ~n ?seqs ~ranges rpcs =
  match check_ranges ~n ranges with
  | Error _ as e -> e
  | Ok () ->
      let shards = List.length ranges in
      if Array.length rpcs <> shards then
        Error
          (Printf.sprintf "%d shard ranges but %d backends" shards
             (Array.length rpcs))
      else
        let seqs =
          match seqs with
          | None -> Array.make shards 0
          | Some s ->
              if Array.length s <> shards then
                invalid_arg "Shard.router: seqs length mismatch"
              else Array.copy s
        in
        Ok
          {
            n;
            ranges = Array.of_list ranges;
            rpcs;
            seqs;
            level = 0;
            memo = None;
            memo_epoch = 0;
          }

let shard_count t = Array.length t.ranges
let ranges t = Array.to_list t.ranges
let seq t = Array.fold_left ( + ) 0 t.seqs

let set_cache t ~cap = t.memo <- Some (Rcache.create ~cap ())
let memo_hits t = match t.memo with Some m -> Rcache.hits m | None -> 0
let memo_misses t = match t.memo with Some m -> Rcache.misses m | None -> 0
let bump_epoch t = t.memo_epoch <- t.memo_epoch + 1

let owner t i =
  let rec go k = if i <= t.ranges.(k).hi then k else go (k + 1) in
  go 0

(* A shard reply that is not the single expected frame — a transport
   failure, a miscounted batch — surfaces as a structured Internal
   error naming the shard, never an exception into the serving loop. *)
let call t k req =
  match t.rpcs.(k) req with
  | Ok [ reply ] -> reply
  | Ok replies ->
      Wire.Error
        {
          code = Wire.Internal;
          message =
            Printf.sprintf "shard %d: %d replies to one frame" k
              (List.length replies);
        }
  | Error e ->
      Wire.Error
        {
          code = Wire.Internal;
          message = Printf.sprintf "shard %d: %s" k (Validate.to_string e);
        }

exception Routed of Wire.reply

(* Shard-local range sum, for the scatter-gather merge paths. Anything
   but a VALUE aborts the merge and surfaces as this request's reply.

   With a memo installed ({!set_cache}) the sub-range RPC is skipped
   on a hit — sound because the memo epoch is bumped on every event
   that can change a shard's synopsis (write acks, RETIER), and
   reply-preserving because the router's synchronous one-RPC-per-round
   fan-out means a shard backend never sheds (its per-round admission
   count is always 1), so a skipped RPC cannot change any shard's
   pressure history. Non-VALUE replies are never memoised. *)
let value t k ~lo ~hi =
  let compute () =
    match call t k (Wire.Range { lo; hi }) with
    | Wire.Value v -> v
    | other -> raise (Routed other)
  in
  match t.memo with
  | None -> compute ()
  | Some memo -> (
      let key = (k, lo, hi) in
      match Rcache.find memo ~epoch:t.memo_epoch key with
      | Some v -> v
      | None ->
          let v = compute () in
          Rcache.add memo ~epoch:t.memo_epoch key v;
          v)

(* [Quantiles.estimate] over composed per-shard prefix sums: same
   validity checks, same messages, same bisection. The per-shard
   totals are fetched first; [cumulative] at a global index is the
   full totals of the shards before the owner plus the owner's local
   prefix, accumulated in shard-index order. *)
let quantile t q =
  if not (q >= 0. && q <= 1.) then
    Wire.Error
      {
        code = Wire.Out_of_range;
        message = "Quantiles: q must be in [0, 1]";
      }
  else begin
    let totals =
      Array.mapi (fun k r -> value t k ~lo:0 ~hi:(r.hi - r.lo)) t.ranges
    in
    let total = Array.fold_left ( +. ) 0. totals in
    if total <= 0. then
      Wire.Error
        {
          code = Wire.Unanswerable;
          message = "Quantiles: estimated total is not positive";
        }
    else begin
      let cumulative mid =
        let k = owner t mid in
        let before = ref 0. in
        for j = 0 to k - 1 do
          before := !before +. totals.(j)
        done;
        !before +. value t k ~lo:0 ~hi:(mid - t.ranges.(k).lo)
      in
      Wire.Quantile_pos (Quantiles.bisect ~n:t.n ~total ~cumulative ~q)
    end
  end

let eval t req =
  try
    match req with
    | Wire.Point i ->
        if i < 0 || i >= t.n then
          Wire.Error
            {
              code = Wire.Out_of_range;
              message =
                Printf.sprintf "cell %d outside domain [0, %d]" i (t.n - 1);
            }
        else
          let k = owner t i in
          call t k (Wire.Point (i - t.ranges.(k).lo))
    | Wire.Range { lo; hi } ->
        if lo < 0 || hi >= t.n || lo > hi then
          Wire.Error
            {
              code = Wire.Out_of_range;
              message =
                Printf.sprintf "range [%d, %d] invalid over domain [0, %d]" lo
                  hi (t.n - 1);
            }
        else begin
          let acc = ref 0. in
          Array.iteri
            (fun k r ->
              if r.hi >= lo && r.lo <= hi then
                acc :=
                  !acc
                  +. value t k
                       ~lo:(Stdlib.max lo r.lo - r.lo)
                       ~hi:(Stdlib.min hi r.hi - r.lo))
            t.ranges;
          Wire.Value !acc
        end
    | Wire.Quantile q -> quantile t q
    | _ -> Wire.Error { code = Wire.Internal; message = "not an admitted kind" }
  with Routed reply -> reply

(* --- the write path --- *)

(* Storms are validated globally before any shard sees a delta —
   the same atomic-on-validation contract (and the same messages) as
   the unsharded write path. Past validation the sub-storms apply in
   shard-index order; a journal failure on one shard leaves earlier
   shards' sub-storms durable (atomicity is per shard — the error
   reply tells the client its resume cursor, exactly as a mid-storm
   journal failure does unsharded). *)
let ingest t deltas =
  match
    List.find_opt
      (fun (i, d) -> i < 0 || i >= t.n || not (Float.is_finite d))
      deltas
  with
  | Some (i, d) ->
      if i < 0 || i >= t.n then
        Wire.Error
          {
            code = Wire.Out_of_range;
            message = Printf.sprintf "%d: cell out of domain [0, %d)" i t.n;
          }
      else
        Wire.Error
          {
            code = Wire.Bad_request;
            message = Printf.sprintf "%h: not finite (NaN/Inf)" d;
          }
  | None ->
      let subs = Array.make (Array.length t.ranges) [] in
      List.iter
        (fun (i, d) ->
          let k = owner t i in
          subs.(k) <- (i - t.ranges.(k).lo, d) :: subs.(k))
        deltas;
      let failed = ref None in
      Array.iteri
        (fun k sub ->
          if sub <> [] && !failed = None then
            match call t k (Wire.Ingest (List.rev sub)) with
            | Wire.Acked { seq } ->
                t.seqs.(k) <- seq;
                bump_epoch t
            | other -> failed := Some other)
        subs;
      (match !failed with
      | Some reply -> reply
      | None -> Wire.Acked { seq = seq t })

let write t req =
  match req with
  | Wire.Update { i; delta } ->
      if i < 0 || i >= t.n then
        (* Unroutable: no shard owns the cell. Same message the owning
           shard's supervisor would have produced. *)
        Wire.Error
          {
            code = Wire.Out_of_range;
            message = Printf.sprintf "%d: cell out of domain [0, %d)" i t.n;
          }
      else begin
        let k = owner t i in
        match call t k (Wire.Update { i = i - t.ranges.(k).lo; delta }) with
        | Wire.Acked { seq = shard_seq } ->
            t.seqs.(k) <- shard_seq;
            bump_epoch t;
            Wire.Acked { seq = seq t }
        | other -> other
      end
  | Wire.Ingest deltas -> ingest t deltas
  | _ -> Wire.Error { code = Wire.Internal; message = "not a write" }

(* --- control plane --- *)

let retier t level =
  if level <> t.level then begin
    t.level <- level;
    bump_epoch t;
    (* Best effort, shard-index order: an unreachable shard keeps its
       old tier and its failover client sorts it out on the next
       request. *)
    Array.iteri (fun k _ -> ignore (call t k (Wire.Retier level))) t.rpcs
  end

let shutdown t =
  Array.iteri (fun k _ -> ignore (call t k Wire.Shutdown)) t.rpcs

let stats_sections t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun k r ->
      Buffer.add_string buf
        (Printf.sprintf "== shard %d [%d, %d] ==\n" k r.lo r.hi);
      match call t k Wire.Stats with
      | Wire.Stats_text s ->
          Buffer.add_string buf s;
          if s = "" || s.[String.length s - 1] <> '\n' then
            Buffer.add_char buf '\n'
      | other -> Buffer.add_string buf (Wire.describe_reply other ^ "\n"))
    t.ranges;
  Buffer.contents buf
