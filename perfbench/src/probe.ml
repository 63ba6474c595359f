(* Per-layer deterministic counters, read from each layer's public
   accessors. A workload describes what it built as a [view]; layers it
   does not use read as zero, which is how the bypass predictions
   ("noc-mesh touches no switch") become checkable numbers. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Mesh = Apiary_noc.Mesh
module Router = Apiary_noc.Router
module Kernel = Apiary_core.Kernel
module Switch = Apiary_net.Switch
module Shard_client = Apiary_cluster.Shard_client
module Collector = Apiary_cluster.Collector
module Sched = Apiary_sched.Sched
module Span = Apiary_obs.Span
module Agent = Apiary_obs.Agent

type view = {
  meshes : (unit -> int * int * int) list;
      (** per mesh: packets delivered, flits routed, router busy cycles *)
  kernels : Kernel.t list;
  switch : Switch.t option;
  clients : Shard_client.t list;
  collector : Collector.t option;
  sched : Sched.t option;
}

let empty =
  {
    meshes = [];
    kernels = [];
    switch = None;
    clients = [];
    collector = None;
    sched = None;
  }

(* Erases the payload type so boards' [Message.t] meshes and a bare
   [int] mesh fit in one list. *)
let mesh_reader (m : _ Mesh.t) () =
  let busy =
    List.fold_left
      (fun a c -> a + Router.busy_cycles (Mesh.router_at m c))
      0 (Mesh.coords m)
  in
  (Mesh.packets_delivered m, Mesh.flits_routed m, busy)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* The deterministic counters, in report order. Engine totals are
   process-wide, so an episode runs in a process of its own. *)
let counters v =
  let windows, _, _ = Par_sim.total_window_stats () in
  let noc = List.map (fun r -> r ()) v.meshes in
  let sw f = match v.switch with Some s -> f s | None -> 0 in
  let col f = match v.collector with Some c -> f c | None -> 0 in
  let per_board f =
    col (fun c -> sum (f c) (List.init (Collector.n_boards c) Fun.id))
  in
  let agents f = per_board (fun c b -> f (Collector.agent c b)) in
  let totals = Option.map Sched.totals v.sched in
  let sc f = match totals with Some t -> f t | None -> 0 in
  [
    ("engine.active_ticks", Sim.total_active_ticks ());
    ("engine.skipped_ticks", Sim.total_skipped_ticks ());
    ("engine.ff_cycles", Sim.total_skipped ());
    ("engine.windows", windows);
    ("noc.packets_delivered", sum (fun (d, _, _) -> d) noc);
    ("noc.flits_routed", sum (fun (_, f, _) -> f) noc);
    ("noc.router_busy_cycles", sum (fun (_, _, b) -> b) noc);
    ("core.msgs", sum Kernel.total_msgs v.kernels);
    ("core.denied", sum Kernel.total_denied v.kernels);
    ("core.dropped", sum Kernel.total_dropped v.kernels);
    ("net.frames_forwarded", sw Switch.frames_forwarded);
    ("net.frames_flooded", sw Switch.frames_flooded);
    ("net.frames_dropped", sw Switch.frames_dropped);
    ("cluster.issued", sum Shard_client.issued v.clients);
    ("cluster.ok", sum Shard_client.completed v.clients);
    ("cluster.errors", sum Shard_client.errors v.clients);
    ("cluster.failovers", sum Shard_client.failovers v.clients);
    ("obs.spans_recorded", Span.count ());
    ("obs.spans_sampled", Span.sampled ());
    ("obs.spans_dropped", Span.dropped ());
    ("obs.agent_emitted", agents Agent.emitted);
    ("obs.agent_dropped", agents Agent.dropped);
    ("obs.agent_sent_bytes", agents Agent.sent_bytes);
    ("obs.collector_rx_frames", col Collector.rx_frames);
    ( "obs.collector_lost",
      per_board (fun c b -> Collector.lost_records_detected c ~board:b) );
    ("sched.placements", sc (fun t -> t.Sched.placements));
    ("sched.migrations", sc (fun t -> t.Sched.migrations));
    ("sched.scale_ups", sc (fun t -> t.Sched.scale_ups));
    ("sched.scale_downs", sc (fun t -> t.Sched.scale_downs));
    ("sched.replaced", sc (fun t -> t.Sched.replaced));
    ( "sched.decisions",
      match v.sched with Some s -> List.length (Sched.decisions s) | None -> 0
    );
  ]

let diff after before =
  List.map2
    (fun (k, a) (k', b) ->
      assert (k = k');
      (k, a - b))
    after before

(* Wall time of the three named ticker timers, aggregated over every
   instance (all zero unless APIARY_PROF is set). *)
let profile_s () =
  let snap = Apiary_engine.Profile.snapshot () in
  let get name =
    Option.value ~default:0.0
      (List.find_map (fun (n, _, _, s) -> if n = name then Some s else None) snap)
  in
  (get "noc.router", get "noc.nic", get "monitor")

(* GC counters per phase, from [Gc.quick_stat] deltas (worker domains'
   counts fold in when they are joined). *)
type gc = {
  minor : float;
  promoted : float;
  major : float;
  collections : int;
  top : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
    top = s.Gc.top_heap_words;
  }

let gc_delta ~phase a b =
  let p k = "runtime." ^ phase ^ "." ^ k in
  [
    (p "minor_words", Json.Float (b.minor -. a.minor));
    (p "promoted_words", Json.Float (b.promoted -. a.promoted));
    (p "major_words", Json.Float (b.major -. a.major));
    (p "major_collections", Json.Int (b.collections - a.collections));
    (p "top_heap_words", Json.Int b.top);
  ]
