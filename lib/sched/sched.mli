(** The elastic multi-tenant scheduler: a rack-controller service that
    places accelerator contexts onto tiles ({!Placer}), migrates hot
    tenants between boards with context-swap + partial reconfiguration,
    and autoscales replica counts against each tenant's SLO — the
    cluster-level "OS scheduler" the paper's multi-tenancy story implies
    (§4.1 replicated accelerators, §6-Q3 rack-scale OS functionality).

    {2 Control and telemetry planes}

    All scheduler state lives on the rack controller (member 0 of a
    partitioned engine). Telemetry flows {e up} through the rack's one
    in-band transport, the {!Apiary_cluster.Collector}'s agent batches
    on the boards' own uplinks. {!start} registers a sampler in each
    board's own registry ({!Apiary_core.Kernel.registry}, gauges named
    [b<id>.sched.*]) that publishes, as gauges, the cumulative
    per-tile {!Apiary_core.Statsvc} message counts and the count of
    router-congestion alarms from an {!Apiary_core.Health} watchdog per
    board. Every [report_period] the controller differences the latest
    collected values into per-tile load and board load (their sum,
    messages per [report_period]); a rise in the alarm count marks the
    board congested until the next epoch. Gauges are absolute, so a
    lost record only delays the signal. Commands flow {e down} through
    {!Apiary_cluster.Cluster.post_to_board} with at least one uplink of
    latency — the same staging protocol as frames and directory
    announcements — so [Par] runs are byte-identical to the [Seq]
    reference. The scheduler owns no NIC, switch port or frame
    handler.

    {2 Decisions}

    - {b Placement}: initial replicas at each tenant's reservation, bin
      packed under the floorplan area model.
    - {b Autoscale}: per epoch, a tenant whose SLO attainment (measured
      on its watched {!Apiary_cluster.Shard_client}) stays below target
      — or whose per-replica throughput saturates its capacity hint —
      for [up_epochs] gains a replica if capacity exists ({e never} by
      evicting another tenant; denied growth is logged as a [defer]).
      Sustained low utilization sheds replicas down to the reservation.
    - {b Migration}: a board that is congestion-alarmed or beyond
      [hot_load] sheds its busiest tenant to a board under [cold_load],
      make-before-break: install on the destination (state transfer +
      PR modelled as deterministic cycle costs), cut the directory and
      client rings over once active, drain, then reconfigure the old
      tile to an idle slot and reclaim it.
    - {b Failure}: on {!Apiary_cluster.Cluster.report_down} (raised by
      the collector's liveness sweep,
      {!Apiary_cluster.Collector.watch_liveness}, or any other detector)
      the dead board's replicas are struck and displaced tenants
      re-placed on survivors immediately.

    Every decision is cycle-stamped into a log ({!decisions_json} is
    byte-stable), mirrored as [sched.*] registry counters and, when
    span tracing is on, as ["sched"]-category instants. *)

module Shell := Apiary_core.Shell
module Cluster := Apiary_cluster.Cluster
module Shard_client := Apiary_cluster.Shard_client
module Slo := Apiary_obs.Slo
module Flight := Apiary_obs.Flight

type config = {
  report_period : int;
      (** cycles between controller samples of the collected load; load
          is messages per [report_period]. Must be at least the
          collector's agent period, or {!start} raises. *)
  epoch : int;  (** cycles between autoscale/migration evaluations *)
  up_epochs : int;  (** consecutive bad epochs before scaling up *)
  down_epochs : int;  (** consecutive idle epochs before scaling down *)
  slo_target_pct : int;  (** required SLO attainment, percent *)
  hi_util_pct : int;  (** per-replica demand (as % of capacity hint) treated as saturation *)
  lo_util_pct : int;  (** per-replica demand below this % is idle *)
  min_samples : int;  (** completions per epoch below which attainment is not judged *)
  hot_load : int;  (** board msgs/report_period above which it sheds load *)
  cold_load : int;
      (** board msgs/report_period below which it accepts migrations *)
  cooldown : int;  (** min cycles between migrations of one tenant *)
  drain_delay : int;
      (** cycles a cut-over replica keeps serving before its tile is
          reclaimed; keep above the shard clients' request timeout so
          in-flight work drains (zero lost requests) *)
  margin : int;  (** slack added to modelled install/PR completion times *)
  pr_bytes_per_cycle : int;
      (** must match the boards' kernel config (default 8) — the
          controller predicts PR completion with the same constant *)
  max_migrations_per_epoch : int;
  slo_window : int;
      (** SLO accounting window ({!Apiary_obs.Slo}), cycles; windows
          also close on this clock so alerts fire even when a tenant
          goes quiet *)
  slo_min_samples : int;
      (** burn rates read as 0 over window spans with fewer samples
          than this ({!Apiary_obs.Slo.objective}'s [min_samples]) —
          size it to the window, not the epoch *)
}

val default_config : config
(** load sampled every 1000, epoch 20_000, 2 up / 3 down epochs, 99%
    SLO target, 90/25% utilization bands, hot 2000 / cold 800 msgs per
    report period, cooldown 60_000, drain 30_000, margin 128, PR 8
    B/cycle, 1 migration per epoch, SLO window 5_000 with 20 min
    samples. *)

type t

val create :
  ?config:config ->
  ?collector:Apiary_cluster.Collector.t ->
  Cluster.t ->
  slot_cells:(int -> int) ->
  t
(** Attach a scheduler to the rack and snapshot each board's free tiles
    as its schedulable slots. [collector] is the rack
    {!Apiary_cluster.Collector} the scheduler reads board load and
    alarms from; it may instead be bound later by {!watch_collected}.
    [slot_cells board] is the per-slot logic-cell budget (a
    {!Apiary_resource.Floorplan.plan}'s [slot_logic_cells]) — boards
    built from different parts get different budgets. Boards the
    scheduler manages must receive {e all} their installs through it. *)

val add_tenant :
  t -> spec:Placer.tenant -> behavior:(unit -> Shell.behavior) -> unit
(** Declare a tenant before {!start}. [behavior] builds a fresh replica
    behavior per placement (it must register [spec.name] with the
    board kernel on boot, as {!Apiary_accel.Accels} behaviors do). *)

val watch : t -> tenant:string -> Shard_client.t -> unit
(** Bind the tenant's external load generator: every request outcome
    (including timeouts, which no latency histogram can see) feeds the
    tenant's {!Apiary_obs.Slo} error budget — the autoscaler's
    attainment signal — and every placement change re-syncs the client's
    shard ring so traffic follows the placement. Claims the client's
    [set_on_outcome] hook. *)

val watch_collected : t -> tenant:string -> Apiary_cluster.Collector.t -> unit
(** In-band alternative to {!watch}: feed the tenant's error budget
    from the rack {!Apiary_cluster.Collector}'s service-outcome stream
    (server-observed latency and status from collected [serve] spans,
    delivered over the fabric) instead of the client's local hook. Also
    binds [collector] as the scheduler's telemetry source.
    Honestly blind to requests no replica ever saw — client-side
    timeouts stay client-side; E16e measures the gap. Combine with
    {!watch_client_only} so placement changes still re-sync the
    client's shard ring. *)

val watch_client_only : t -> tenant:string -> Shard_client.t -> unit
(** Bind the tenant's client for shard-ring re-syncs on placement
    changes {e without} claiming its outcome hook (used alongside
    {!watch_collected}). *)

val start : t -> unit
(** Place initial replicas (each tenant at its reservation, in
    [add_tenant] order), register the per-board telemetry samplers and
    health watchdogs, arm the controller's [report_period] sampling of
    the collector, and subscribe to the cluster's failure/recovery
    announcements. Call after tenants are declared and clients watched,
    before running the engine. Raises [Invalid_argument] when no
    collector is bound, or when the collector's agent period exceeds
    [report_period] (a sample would then see no fresh data). *)

(** {1 Introspection} *)

type decision = {
  d_cycle : int;
  d_kind : string;
      (** [place], [scale_up], [scale_down], [migrate], [replace],
          [defer], [abort], [board_down], [slo_alert] *)
  d_tenant : string;  (** ["-"] for board-level events *)
  d_board : int;  (** destination board, [-1] when not applicable *)
  d_src : int;  (** migration source board, [-1] otherwise *)
  d_note : string;
}

type totals = {
  placements : int;  (** initial placements + scale-ups + replacements *)
  migrations : int;
  scale_ups : int;
  scale_downs : int;  (** voluntary replica evictions (to reservation) *)
  deferred : int;  (** growth denied for lack of capacity *)
  replaced : int;  (** replicas re-placed after a board death *)
  slo_violations : int;  (** tenant-epochs below the attainment target *)
}

val decisions : t -> decision list
(** Oldest first. *)

val decisions_json : t -> string
(** The decision log as a JSON array (cycle-stamped only — byte-stable
    across identical runs and engine modes). *)

val totals : t -> totals

val replicas : t -> tenant:string -> int
(** Currently serving replicas. *)

val placement : t -> tenant:string -> int list
(** Boards currently serving the tenant, ascending. *)

val replica_cycles : t -> tenant:string -> now:int -> int
(** Integral of serving replicas over time up to [now] — divide by the
    run length for average provisioned replicas. *)

val slo : t -> tenant:string -> Slo.t
(** The tenant's SLO object: error-budget totals, burn rates, the alert
    log, and the first-below-target cycle. *)

val slo_report_json : t -> string
(** Per-tenant SLO report ({!Apiary_obs.Slo.report_json_string}) over
    all tenants in [add_tenant] order — byte-stable. *)

val write_slo_report : t -> string -> unit

val flight : t -> Flight.t
(** The controller's flight ring. Burn-rate alerts are recorded into it
    (category ["slo"], name ["page"]/["ticket"]); arm it with
    [APIARY_FLIGHT=1] (size with [APIARY_FLIGHT_CAP]) or
    {!Apiary_obs.Flight.set_enabled}, like the kernels' rings. *)

val register_metrics : t -> unit
(** Install a sampler in the rack's registry
    ({!Apiary_cluster.Cluster.registry}) publishing per-tenant
    replica/burn-rate/budget gauges and per-board load gauges under
    [sched.*] (decision counters are maintained there under
    [sched.<kind>] as they happen). *)
