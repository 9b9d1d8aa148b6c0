(* In-memory span recorder for the traced run. Spans are taken in the
   benchmark's own code around each call into a layer's public
   function; each carries a name, start and end stamps, its parent and
   the id of the request it served. One recorder per domain, written
   out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;
  t0 : int64;
  t1 : int64;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  base : int;  (** id offset, so merged recorders never share ids *)
}

let create ~base = { spans = []; stack = []; next = 1; base }

let with_ t name ~req f =
  let id = t.base + t.next in
  t.next <- t.next + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let t0 = Common.now_ns () in
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; req; t0; t1 = Common.now_ns () } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans ts = List.concat_map (fun t -> List.rev t.spans) ts
let dur_ns s = Common.ns_between s.t0 s.t1

(* Self time per span name: each span's duration minus what its direct
   children cover (children of one parent never overlap here: every
   recorder is single-threaded). Returns (name, calls, self ns total),
   heaviest first. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur_ns s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let calls, total =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (calls + 1, total +. self))
    spans;
  List.sort
    (fun (_, _, a) (_, _, b) -> compare b a)
    (Hashtbl.fold (fun name (c, tot) l -> (name, c, tot) :: l) acc [])

(* One tab-separated line per span: id parent name req start_ns end_ns. *)
let write path spans =
  let oc = open_out path in
  output_string oc "id\tparent\tname\treq\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%Ld\t%Ld\n" s.id s.parent s.name s.req
        s.t0 s.t1)
    spans;
  close_out oc
