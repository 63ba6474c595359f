(** Rack telemetry collector: reassembles every board agent's push
    stream into the central observability pipeline.

    {!create} builds the whole in-band telemetry plane in one call: a
    collector NIC on the ToR switch, plus one {!Apiary_obs.Agent} per
    board wired to ship its batches through the board's {e own}
    workload NIC (telemetry shares the uplink and is charged for it).
    Each agent harvests the registry its board owns
    ({!Apiary_core.Kernel.registry}). Delivered batches land in:

    - the collector's own registry, under [collected.<name>] for each
      board-published [b<id>.*] name (counter / gauge / histogram
      deltas replayed), attached below {!Cluster.registry} so a metrics
      snapshot shows it side by side with the board-local originals;
    - a windowed latency {!Apiary_obs.Series} per service, observed at
      collector arrival time;
    - per-metric {!Apiary_obs.Exemplar} stores — the metric→trace link;
    - a bounded collected-span list re-exportable as a Chrome trace;
    - {!on_service_outcome} subscribers (the scheduler's collected SLO
      feed).

    The same stream carries board liveness. An agent with nothing to
    ship still flushes a header-only batch every period, so every live
    board is heard from once per agent period. {!watch_liveness} turns
    silence into {!Cluster.report_down}; there is no separate heartbeat
    format or port.

    Accounting is conservation-exact per board (see
    {!conservation_json_string}): cumulative sent/dropped counts in
    every batch header plus sequence-gap detection make
    [emitted = delivered + dropped + lost + in-flight] close to the
    record even under deliberate uplink congestion.

    The collector runs wholly on the rack simulator, so all its exports
    are byte-identical between the sequential engine and
    [APIARY_PAR=boards]. *)

type t

type outcome = {
  o_service : string;
  o_dur : int;  (** server-observed service time, cycles *)
  o_ok : bool;  (** status arg was ["ok"] (or absent) *)
  o_corr : int;  (** cross-wire [req_id] when present, else span corr *)
}

val create :
  ?gbps:float ->
  ?agent_period:int ->
  ?agent_queue:int ->
  ?agent_batch_bytes:int ->
  ?agent_max_frames:int ->
  ?agent_until:int ->
  ?series_window:int ->
  ?span_cap:int ->
  Cluster.t ->
  t
(** Attach the collector NIC and create one push agent per board.
    [gbps] (default 100, a board-uplink-class port) sizes the
    collector's switch port — every board can flush into it at once.
    Agent knobs default to the agent's own (environment-tunable)
    defaults; [agent_max_frames] caps batches per flush (default 2);
    [agent_until] skips agent ticks after that cycle (see
    {!Apiary_obs.Agent.create}), so a run's last stretch provably
    drains the wire before conservation is read.
    [series_window] (default 50_000 cycles) sizes the latency rollup
    windows; [span_cap] (default 65_536) bounds retained collected
    spans (overflow is counted, and reported as [trace_truncated] by
    the trace export). *)

val watch_liveness : t -> unit
(** Arm the liveness sweep (opt-in: a caller with its own failure
    detector leaves it off, since {!Cluster.report_down} is not
    idempotent). Every agent period, starting one deadline after boot,
    a board whose last batch arrived more than [6 × agent period] cycles
    ago is declared down via {!Cluster.report_down}, once per up→down
    transition. Detection lag is about the deadline plus one period:
    3,500 cycles at a 500-cycle agent period (E13b).
    A fresh batch re-arms the board (ring re-admission still comes from
    {!Cluster.restore}). The sweep stops after [agent_until], so agents
    quiesced on purpose are never reported dead. *)

val detections : t -> (int * int) list
(** [(cycle, board)] failure declarations by the liveness sweep, oldest
    first. *)

val agent_period : t -> int
(** The agents' harvest/flush period, cycles. *)

val gauge : t -> string -> float option
(** The latest delivered value of a board gauge, by the name the board
    published it under (e.g. [b2.sched.t3.msgs_in]), read from the
    collector's registry; [None] until a record for it arrives. Gauges
    are absolute, so a lost record only delays the value: the next
    delivered one overwrites it. *)

val detach : t -> unit
(** Detach every agent (stops their ticks and removes span sinks).
    Always call before reusing the obs layer for an unrelated run. *)

val agent : t -> int -> Apiary_obs.Agent.t
val n_boards : t -> int

val on_service_outcome : t -> (now:int -> outcome -> unit) -> unit
(** Subscribe to service outcomes reconstructed from collected [serve]
    spans. Serve spans are corr-0, so sampling never thins them; what
    this feed {e does} honestly miss is requests that died before any
    server saw them — client-side timeout detection stays client-side. *)

val series : t -> Apiary_obs.Series.t
(** Windowed latency rollups per collected metric
    ([collected.svc.<name>.latency]). *)

val exemplar : t -> string -> Apiary_obs.Exemplar.t option
(** The exemplar store for a collected metric name, if any samples with
    a usable correlation id arrived. *)

val rx_frames : t -> int
val delivered : t -> board:int -> int
val lost_batches : t -> board:int -> int

val lost_records_detected : t -> board:int -> int
(** Wire loss inferred from cumulative batch-header counts at sequence
    gaps — the collector's independent estimate of
    [sent_records - delivered], exact once a post-gap batch arrives. *)

val last_agent_ts : t -> board:int -> int

val staleness : t -> board:int -> now:int -> int
(** Age, in cycles, of the freshest data collected from the board (the
    full [now] before any batch has arrived). *)

val collected_spans : t -> (int * Apiary_obs.Agent.Wire.span_done) list
(** Delivered span completions in arrival order, with their board. *)

val trace_events : t -> Apiary_obs.Span.event list

val trace_json_string : t -> string
(** Collected spans as a byte-stable Chrome trace (standard exporter;
    [trace_truncated] metadata appears iff the span cap dropped any). *)

val conservation_json_string : t -> string
(** Byte-stable per-board accounting:
    [{"boards": [{"board", "emitted", "delivered", "dropped_agent",
    "lost_wire", "lost_wire_detected", "in_flight", "sent_records",
    "sent_batches", "sent_bytes", "batches", "lost_batches",
    "backpressure", "decode_errors", "last_agent_ts", "last_rx"},
    ...]}] satisfying
    [emitted == delivered + dropped_agent + lost_wire + in_flight]
    exactly once the fabric has drained. *)

val exemplars_json_string : t -> string
(** [{"metrics": [<exemplar store>, ...]}], sorted by metric name. *)
