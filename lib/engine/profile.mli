(** Opt-in hot-path profiling for the simulation engine.

    When [APIARY_PROF=1] is in the environment, {!Sim.add_clocked}
    counts and wall-times every tick, attributed to the component's
    registered name, and tracks how many eligible cycles the
    activity-set scheduler let the component *skip* entirely. The bench
    harness ([--perf]) prints the aggregate so perf work can see
    {e where} cycles go, not just how many were simulated.

    Otherwise (unset, empty, [0] or any other value), registration
    returns inert rows and the tick path is untouched — profiling
    costs nothing unless asked for.

    Rows are written lock-free by whichever domain is ticking the
    owning simulator (a simulator is ticked by exactly one domain at a
    time); {!snapshot} is meant to be called between runs, from the
    coordinating domain. *)

type row = {
  name : string;
  mutable calls : int;  (** ticks executed *)
  mutable skipped : int;
      (** eligible cycles the ticker was parked and not called *)
  mutable seconds : float;  (** cumulative wall time inside the ticker *)
}

val enabled_of_env : string option -> bool
(** The [APIARY_PROF] parse: true only for ["1"] (surrounding blanks
    ignored); unset, empty, ["0"] and anything else mean off. *)

val enabled : unit -> bool
(** [enabled_of_env] of [APIARY_PROF], read once, at first use. *)

val register : string -> row
(** Allocate a row under [name] and enlist it in the global registry.
    Rows with the same name are aggregated by {!snapshot}. *)

val now_s : unit -> float
(** Wall clock in seconds (monotonic enough for cumulative deltas). *)

val snapshot : unit -> (string * int * int * float) list
(** [(name, calls, skipped, seconds)] aggregated over same-named rows,
    sorted by cumulative seconds, largest first. *)

val reset : unit -> unit
(** Zero every registered row (keeps registrations). *)
