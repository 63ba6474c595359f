(** Learning store-and-forward switch (top-of-rack model).

    MAC addresses are learned from source fields; unknown destinations
    flood. Forwarding adds a fixed store-and-forward latency; egress
    serialization is enforced by the attached links.

    The learning table is bounded ([fdb_capacity], FIFO eviction), so a
    MAC-flooding host degrades to flooding rather than growing switch
    state without limit. Ports can be administratively downed
    ({!set_port_up}) — frames to or from a down port are dropped and
    counted, which is how a rack simulation models a board failure as
    seen from the network. *)

module Sim := Apiary_engine.Sim

type t

val create : ?fdb_capacity:int -> Sim.t -> nports:int -> latency:int -> t
(** [latency] in cycles (≈250 for a 1 µs ToR at 250 MHz).
    [fdb_capacity] bounds the MAC learning table (default 1024); the
    oldest entry is evicted first when full. *)

val attach : t -> port:int -> Link.t -> Link.side -> unit
(** Plug a link into a port; the switch receives frames arriving at the
    given [side] of the link and transmits from that side. *)

val set_port_up : t -> port:int -> bool -> unit
(** Administratively raise/lower a port. Frames arriving on a down port,
    and frames whose egress port is down, are dropped (and counted
    against the ingress port). Ports start up. *)

val port_up : t -> port:int -> bool

(** {2 Aggregate counters} *)

val frames_forwarded : t -> int
val frames_flooded : t -> int

val frames_dropped : t -> int
(** Frames discarded: ingress or egress port down, or destination
    learned behind the ingress port. *)

val table_size : t -> int
val fdb_capacity : t -> int

(** {2 Per-port counters}

    All attributed to the {e ingress} port of the frame. *)

val port_forwarded : t -> port:int -> int
val port_flooded : t -> port:int -> int
val port_dropped : t -> port:int -> int

val register_metrics : t -> Apiary_obs.Registry.t -> prefix:string -> unit
(** Install a sampler in the given registry (named [prefix ^ ".switch"])
    publishing forwarded/flooded/dropped totals, FDB size, and per-port
    forwarded/dropped gauges. *)
