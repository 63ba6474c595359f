(* The benchmark's own instrumentation, measured from outside the
   simulator: wall-clock timing of every call the benchmark makes into a
   layer's public API, per-layer time totals, and — in a traced run
   only — an in-memory span tree written out at exit plus GC time read
   from the OCaml runtime's event ring.

   Untraced runs pay two clock reads per timed call and nothing else:
   no span is kept and the runtime event ring is never started. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (* -1 for the root *)
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable args : (string * Json.t) list;
}

(* GC time from Runtime_events: per domain, wall time between the
   outermost runtime-phase begin and its matching end. Waiting on a
   domain condition is not collection work and is left out. *)
module Gc_clock = struct
  type sums = { mutable total_ns : int64; mutable lost : int }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    sums : sums;
  }

  let counts_as_gc = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
    | _ -> true

  let start () =
    Runtime_events.start ();
    let sums = { total_ns = 0L; lost = 0 } in
    let open_at : (int, int * int64) Hashtbl.t = Hashtbl.create 4 in
    let runtime_begin dom ts phase =
      if counts_as_gc phase then
        match Hashtbl.find_opt open_at dom with
        | Some (d, t0) -> Hashtbl.replace open_at dom (d + 1, t0)
        | None ->
          Hashtbl.replace open_at dom (1, Runtime_events.Timestamp.to_int64 ts)
    in
    let runtime_end dom ts phase =
      if counts_as_gc phase then
        match Hashtbl.find_opt open_at dom with
        | Some (1, t0) ->
          Hashtbl.remove open_at dom;
          sums.total_ns <-
            Int64.add sums.total_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
        | Some (d, t0) -> Hashtbl.replace open_at dom (d - 1, t0)
        | None -> ()
    in
    let lost_events _dom n = sums.lost <- sums.lost + n in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
        ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; sums }

  (* Drain the ring; needed often enough that it (64 Ki words by
     default) never wraps between polls. *)
  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)
end

type t = {
  traced : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : span list;  (* open spans, innermost first *)
  layer_s : (string, float) Hashtbl.t;
  gc : Gc_clock.t option;
}

let create ~traced =
  {
    traced;
    spans = [];
    next_id = 0;
    stack = [];
    layer_s = Hashtbl.create 16;
    gc = (if traced then Some (Gc_clock.start ()) else None);
  }

let enter t name =
  if not t.traced then None
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = t.next_id; parent; name; t0 = now (); t1 = nan; args = [] } in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    t.stack <- s :: t.stack;
    Some s
  end

let leave t ?(args = []) = function
  | None -> ()
  | Some s ->
    s.t1 <- now ();
    s.args <- args;
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> [])

let add_layer t layer dt =
  let v = Option.value ~default:0.0 (Hashtbl.find_opt t.layer_s layer) in
  Hashtbl.replace t.layer_s layer (v +. dt)

(* [time t ~layer name f] runs [f], charging its wall time to [layer]
   (always) and recording a span [name] (traced runs only). *)
let time t ?layer name f =
  let s = enter t name in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Option.iter (fun l -> add_layer t l dt) layer;
  leave t s;
  r

let layer_s t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.layer_s layer)

let poll_gc t = Option.iter Gc_clock.poll t.gc

let gc_s t =
  poll_gc t;
  match t.gc with
  | None -> 0.0
  | Some g -> Int64.to_float g.Gc_clock.sums.total_ns /. 1e9

let gc_events_lost t =
  match t.gc with None -> 0 | Some g -> g.Gc_clock.sums.lost

(* Per span name: (count, total seconds, self seconds), where self time
   is a span's duration minus its direct children's. *)
let self_times t =
  let child = Hashtbl.create 64 in
  let dur s = if Float.is_nan s.t1 then 0.0 else s.t1 -. s.t0 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let v = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (v +. dur s))
    t.spans;
  let agg = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = dur s in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg s.name)
      in
      Hashtbl.replace agg s.name (n + 1, tot +. d, sf +. self))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Chrome trace_event JSON ("X" complete events, microseconds from the
   first span), loadable in Perfetto. *)
let chrome_json t =
  let spans = List.rev t.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let ev s =
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("ph", Json.Str "X");
         ("pid", Json.Int 1);
         ("tid", Json.Int 1);
         ("ts", Json.Float ((s.t0 -. origin) *. 1e6));
         ( "dur",
           Json.Float
             ((if Float.is_nan s.t1 then 0.0 else s.t1 -. s.t0) *. 1e6) );
       ]
      @ if s.args = [] then [] else [ ("args", Json.Obj s.args) ])
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map ev spans)) ])
