(** Per-board event ring: the flight recorder and the message trace.

    A bounded ring of the most recent events on one board: every monitor
    admit, ingress, deny, drop, fault and note, plus health alarms.
    Recording is {b off by default} — every {!record} checks one flag
    first, and the ring's storage is only allocated by the first event
    recorded — so runs without introspection are byte-identical to runs
    before the recorder existed. [apiary run --trace] prints the ring's
    tail; on a fault or a watchdog trip it is dumped as deterministic
    postmortem JSON: the last [capacity] events leading up to the
    failure, oldest first.

    Unlike {!Span}, which is process-global and unbounded-ish, the ring
    is {e per board} (the kernel owns one) and strictly bounded, like
    the black box it models. Each ring carries its board id, so the
    rings of a rack pool into one attributed, cycle-ordered stream with
    {!merge}: filter by [corr] on each side of a network hop and order
    by cycle to reconstruct a cross-board call chain. *)

type entry = {
  ts : int;  (** cycle *)
  tile : int;
  cat : string;  (** layer: ["monitor"], ["health"], ["slo"] *)
  name : string;
      (** event. Monitor entries are ["admit"], ["ingress"], ["deny"],
          ["drop"], ["fault"] or ["note"]. *)
  corr : int;  (** RPC correlation id; [0] = uncorrelated *)
  detail : string;
      (** one-line summary: the message's, the fault reason, the note;
          [""] for none *)
  args : (string * string) list;
}

type t

val default_capacity : int
(** 4096 events. *)

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] events. When [capacity] is omitted it is read
    from [APIARY_FLIGHT_CAP] (an integer ≥ 16; anything else warns once
    and falls back to {!default_capacity}). The ring starts armed when
    [APIARY_FLIGHT=1]. These are the only places the two variables are
    read. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val set_board : t -> int -> unit
(** Board id stamped into dumps and merged streams ([-1] until set). *)

val board : t -> int

val record :
  t -> ts:int -> tile:int -> cat:string -> name:string -> ?corr:int ->
  ?detail:string -> ?args:(string * string) list -> unit -> unit
(** No-op unless enabled. Overwrites the oldest event when full. *)

val entries : t -> entry list
(** Retained events, oldest first. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (retained + overwritten). *)

val merge : t list -> (int * entry) list
(** Pool several boards' rings into one cycle-ordered stream, each entry
    paired with its ring's board id. The sort is stable, so entries at
    the same cycle keep their per-ring order and rings the order they
    were passed in. *)

val label : entry -> string
(** Short kind for one-line renderings: [out], [in], [DENY], [drop],
    [FAULT] for admit, ingress, deny, drop and fault; the name
    otherwise. *)

val pp_entry : Format.formatter -> int * entry -> unit
(** [[cycle] b<board> tile<n> <label> <detail> #<corr>] for one entry of
    a {!merge}d stream (no board column when the board is [-1], no
    [#corr] when it is [0]). *)

val dump_json : t -> reason:string -> cycle:int -> string
(** Postmortem document:
    [{"board", "reason", "cycle", "capacity", "recorded", "events": [
      {"ts", "tile", "cat", "name", "corr"?, "detail"?, "args"?}, ...]}].
    Byte-stable for a fixed ring state. *)

val write_dump : t -> reason:string -> cycle:int -> string -> unit
(** [write_dump t ~reason ~cycle path] writes {!dump_json} to [path]. *)
