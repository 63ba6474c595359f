(** Metrics registries: the aggregate half of the telemetry layer.

    Components expose their [Stats] instruments under stable dotted
    names ([b0.noc.r1_2.occ], [rack.switch.flooded]): owned instruments
    ({!counter}, {!gauge}, {!histogram}) and samplers, callbacks that
    pull live component state into instruments before every {!harvest}.

    {b Ownership.} A registry is owned by whoever writes it and takes
    no lock: each board's [Kernel] owns one ([b<id>.*]), each [Cluster]
    one for the rack (switch, directory, shard clients, scheduler) and
    each [Collector] one for its [collected.*] mirror. The registry
    that holds an instrument, not its name, says which board it belongs
    to: a board's agent harvests exactly its board's registry.

    {b The root.} The process keeps one root, read by {!snapshot} and
    emptied by {!clear}. It holds the built-in samplers — [obs.span.*]
    (retained/dropped/sampled span counts, so a truncated trace shows
    in the metrics dump) and [prof.*] (the [APIARY_PROF] ticker rows,
    nothing when profiling is off) — and the owners' registries,
    {!attach}ed under the owner's name; a rack attaches itself as
    ["rack"] with its boards and collector below it. Attaching a name
    again replaces the old registry, so a rebuilt rack replaces the
    previous rack's instruments. The root keeps a lock: parallel sweeps
    build racks, and so attach them, on worker domains.

    {b Still process-level:} the span store and its sink table
    ({!Span}), the engines' run totals ([Sim.total_*],
    [Par_sim.total_window_stats]) and the [Profile] rows, which the
    benchmark harness reads and resets through those calls. *)

module Stats := Apiary_engine.Stats

type instrument =
  | Counter of Stats.Counter.t
  | Gauge of Stats.Gauge.t
  | Histogram of Stats.Histogram.t

type t

val create : unit -> t
(** An empty registry, attached nowhere. *)

val counter : t -> string -> Stats.Counter.t
(** Get or create the named counter. Raises [Invalid_argument] if the
    name is already bound to a different instrument kind. *)

val gauge : t -> string -> Stats.Gauge.t
val histogram : t -> string -> Stats.Histogram.t

val register : t -> string -> instrument -> unit
(** Adopt an existing instrument (e.g. a client's latency histogram)
    under [name], replacing any previous binding. *)

val find : t -> string -> instrument option
(** The instrument bound to [name], without creating one. *)

val add_sampler : t -> name:string -> (unit -> unit) -> unit
(** Install (or replace) a named pull hook, run by {!harvest}.
    Samplers only set their own instruments, so their order is free. *)

val add_int_sampler : t -> name:string -> (string * (unit -> int)) list -> unit
(** {!add_sampler} for integer state: resolve one gauge per
    [(gauge name, reader)] now, and set each from its reader on every
    pull. *)

val harvest : t -> (string * instrument) list
(** Run the samplers of [t] and of every registry attached below it,
    then return all their instruments sorted by name. Raises
    [Invalid_argument] if two of those registries bind one name. *)

val reset : t -> unit
(** Reset every instrument of [t] and of the registries attached below
    it (samplers are kept). *)

val attach : ?parent:t -> name:string -> t -> unit
(** Attach an owner's registry under [parent] (default: the root),
    replacing whatever was attached there under [name]. *)

val snapshot : unit -> (string * instrument) list
(** {!harvest} of the root: every attached owner's instruments plus the
    built-ins, sorted by name (so rendering it is deterministic). *)

val clear : unit -> unit
(** Detach every registry and drop the root's own instruments — between
    unrelated runs. The built-in [obs.span] and [obs.prof] samplers are
    re-installed. *)
