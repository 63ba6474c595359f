(* E16 — the in-band telemetry plane, measured honestly.

   E13 pulled counters through the stat service; E15 priced the span
   recorder. E16 turns the remaining omniscient hooks into traffic: a
   push agent on every board harvests Registry deltas and sampled span
   completions into sequence-numbered batches and ships them through
   the board's own uplink (telemetry shares the wire with the
   workload), a rack collector reassembles the streams, and the
   scheduler's SLO feed switches from the client's local hook to the
   collected one.

   - e16a: telemetry byte overhead vs harvest interval, with the
     conservation identity (emitted = delivered + dropped + lost +
     in-flight, per board) checked after every run.
   - e16b: tail-latency/throughput interference, agents off vs on,
     under the E12 KV drill (the <= 2% budget at the default interval).
   - e16c: deliberate congestion — kill the victim's switch port
     mid-run (frames die on the wire, the agent keeps sending) and
     starve the agent queue so drop-oldest fires; the accounting must
     still close to the record, and the collector's gap-detected loss
     must equal the true wire loss.
   - e16d: freshness — push staleness at the collector vs polling the
     E13 stat service over the same network at the same cadence.
   - e16e: the collected SLO feed driving the elastic scheduler's
     autoscaler vs the client-side hook it replaces.

   Every table and artifact is byte-identical between the engine's Seq
   mode and APIARY_PAR=boards: agents run on board simulators, the
   collector wholly on the rack simulator, and only collector/agent
   state is printed (never the global span store, whose insertion
   order is engine-dependent). APIARY_E16_SMALL=1 shrinks durations
   for CI smoke runs. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
module Node = Apiary_cluster.Node
module Statsvc = Apiary_core.Statsvc
module Netproto = Apiary_net.Netproto
module Frame = Apiary_net.Frame
module Mac = Apiary_net.Mac
module Sched = Apiary_sched.Sched
module Placer = Apiary_sched.Placer
module Slo = Apiary_obs.Slo
module Agent = Apiary_obs.Agent
module Span = Apiary_obs.Span
open Bench_util

let small () = Sys.getenv_opt "APIARY_E16_SMALL" <> None

(* Spans on with E12's deterministic sampling (serve spans are corr-0,
   so the collector's outcome feed is never thinned). *)
let obs_on () =
  Span.reset ();
  Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
  Span.set_enabled true

let obs_off () =
  Span.set_enabled false;
  Span.set_sampling ();
  Span.reset ()

(* Conservation is only readable with the wire empty, so every run
   quiesces its agents ([until]) three periods after the workload stops
   — time to ship the tail — and then coasts another 1_500 cycles
   (several uplink latencies plus serialization) before the engine
   halts. Whatever an agent still holds at the end is then exactly
   "in flight". *)
let quiesce ~stop_at ~period =
  let until = stop_at + (3 * period) in
  (until, until + 1_500)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* One E12-style sharded-KV run with an optional telemetry plane. *)
let kv_run ~boards ~stop_at ~duration ?(extra = fun _ _ -> ()) ~mk_col ~extract
    () =
  obs_on ();
  let r =
    with_rack ~boards ~clients:(boards + 1) ~duration (fun sim cluster ->
        for b = 0 to boards - 1 do
          ignore
            (Cluster.install cluster ~board:b ~service:"kv"
               (fst (Kv.behavior ())))
        done;
        Cluster.register_metrics cluster;
        let col = mk_col cluster in
        let clients =
          List.init boards (fun _ ->
              Shard_client.create cluster ~timeout:20_000 ~service:"kv"
                ~op:Kv.Proto.opcode ~route:Shard_client.By_key
                ~gen:(Cluster_exp.kv_gen 64))
        in
        Sim.after sim 3_000 (fun () ->
            List.iter (fun c -> Shard_client.start c ~concurrency:8) clients);
        Sim.after sim stop_at (fun () -> List.iter Shard_client.stop clients);
        extra sim cluster;
        fun () ->
          let ops =
            List.fold_left (fun a c -> a + Shard_client.completed c) 0 clients
          in
          let r = extract ~ops ~col ~clients in
          (match col with Some c -> Collector.detach c | None -> ());
          r)
  in
  obs_off ();
  r

(* Per-board accounting row pulled from both sides of the wire. *)
type acct = {
  ac_board : int;
  ac_emitted : int;
  ac_delivered : int;
  ac_dropped : int;
  ac_lost : int;  (* sent_records - delivered: true wire loss *)
  ac_detected : int;  (* collector's gap-inferred wire loss *)
  ac_queued : int;
  ac_batches : int;
  ac_bytes : int;  (* batch payload bytes handed to the NIC *)
  ac_backpressure : int;
}

let acct_of col b =
  let a = Collector.agent col b in
  let delivered = Collector.delivered col ~board:b in
  {
    ac_board = b;
    ac_emitted = Agent.emitted a;
    ac_delivered = delivered;
    ac_dropped = Agent.dropped a;
    ac_lost = Agent.sent_records a - delivered;
    ac_detected = Collector.lost_records_detected col ~board:b;
    ac_queued = Agent.queued a;
    ac_batches = Agent.sent_batches a;
    ac_bytes = Agent.sent_bytes a;
    ac_backpressure = Agent.backpressure a;
  }

let conservation_holds rows =
  List.for_all
    (fun r ->
      r.ac_emitted = r.ac_delivered + r.ac_dropped + r.ac_lost + r.ac_queued
      && r.ac_lost = r.ac_detected)
    rows

(* Ethernet cost of one batch frame beyond its payload: header(14) +
   ethertype(2) + FCS(4) + preamble/IPG(20). Batch payloads are far
   above the 46-byte padding floor, so this is exact. *)
let frame_overhead = 40

(* ------------------------------------------------------------------ *)
(* E16a — byte overhead vs harvest interval. *)

type a_row = {
  ar_period : int;
  ar_ops : int;
  ar_records : int;
  ar_batches : int;
  ar_payload : int;
  ar_wire : int;
  ar_pct_uplink : float;  (* of one board's 100G uplink, average *)
  ar_dropped : int;
  ar_conserved : bool;
}

let e16a_run ~boards ~stop_at ~period ~artifacts =
  let until, duration = quiesce ~stop_at ~period in
  kv_run ~boards ~stop_at ~duration
    ~mk_col:(fun cluster ->
      Some
        (Collector.create ~agent_period:period ~agent_until:until
           ~span_cap:262_144 cluster))
    ~extract:(fun ~ops ~col ~clients:_ ->
      let col = Option.get col in
      let rows = List.init boards (acct_of col) in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      let payload = sum (fun r -> r.ac_bytes) in
      let batches = sum (fun r -> r.ac_batches) in
      let wire = payload + (batches * frame_overhead) in
      if artifacts then begin
        write_file "BENCH_e16_exemplars.json"
          (Collector.exemplars_json_string col);
        write_file "BENCH_e16_trace.json" (Collector.trace_json_string col)
      end;
      {
        ar_period = period;
        ar_ops = ops;
        ar_records = sum (fun r -> r.ac_delivered);
        ar_batches = batches;
        ar_payload = payload;
        ar_wire = wire;
        ar_pct_uplink =
          100.0 *. float_of_int wire
          /. float_of_int (boards * duration * 50 (* B/cycle at 100G *));
        ar_dropped = sum (fun r -> r.ac_dropped);
        ar_conserved = conservation_holds rows;
      })
    ()

(* ------------------------------------------------------------------ *)
(* E16b — interference: the same drill with no agents, agents at the
   default interval, and agents pushed 4x harder. *)

let e16b_run ~boards ~stop_at ~duration ~agent_period =
  kv_run ~boards ~stop_at ~duration
    ~mk_col:(fun cluster ->
      match agent_period with
      | None -> None
      | Some p ->
        Some
          (Collector.create ~agent_period:p ~agent_until:(duration - 1_500)
             cluster))
    ~extract:(fun ~ops ~col:_ ~clients ->
      let lat = Stats.Histogram.create "e16b" in
      List.iter
        (fun c ->
          Stats.Histogram.merge_into ~src:(Shard_client.latency c) ~dst:lat)
        clients;
      (ops, p50 lat, p99 lat))
    ()

(* ------------------------------------------------------------------ *)
(* E16c — congestion drill: genuine wire loss (the victim's switch
   port goes down; its agent keeps flushing into the void) plus agent
   queue starvation (tiny queue, one small frame per tick) so
   drop-oldest fires. The books must still balance. *)

let e16c_run ~boards ~victim ~kill_at ~restore_at ~stop_at =
  let period = 500 in
  let until, duration = quiesce ~stop_at ~period in
  kv_run ~boards ~stop_at ~duration
    ~extra:(fun sim cluster ->
      Sim.after sim kill_at (fun () -> Cluster.kill cluster ~board:victim);
      Sim.after sim restore_at (fun () ->
          Cluster.restore cluster ~board:victim))
    ~mk_col:(fun cluster ->
      Some
        (Collector.create ~agent_period:period ~agent_queue:96
           ~agent_batch_bytes:512 ~agent_max_frames:1 ~agent_until:until
           cluster))
    ~extract:(fun ~ops ~col ~clients:_ ->
      let col = Option.get col in
      let rows = List.init boards (acct_of col) in
      write_file "BENCH_e16_conservation.json"
        (Collector.conservation_json_string col);
      (ops, rows))
    ()

(* ------------------------------------------------------------------ *)
(* E16d — staleness: how old is the freshest board-0 data at the rack,
   push (collector batches) vs pull (polling the E13 stat service over
   the same switch at the same cadence)?

   Pull staleness is time since the polled snapshot was read on the
   board: (now - last response) + half the measured round trip. Push
   staleness is the collector's own accessor (now - newest batch's
   harvest stamp). Both sampled every 500 cycles on the rack sim. *)

type stale = { mutable sum : int; mutable n : int; mutable worst : int }

let observe_stale s v =
  s.sum <- s.sum + v;
  s.n <- s.n + 1;
  if v > s.worst then s.worst <- v

let stale_mean s = if s.n = 0 then 0 else s.sum / s.n

let e16d_run ~boards ~stop_at =
  let period = Agent.default_period in
  let _, duration = quiesce ~stop_at ~period in
  let push = { sum = 0; n = 0; worst = 0 } in
  let pull = { sum = 0; n = 0; worst = 0 } in
  let polls = ref 0 in
  obs_on ();
  with_rack ~boards ~clients:(boards + 1) ~duration (fun sim cluster ->
      for b = 0 to boards - 1 do
        ignore
          (Cluster.install cluster ~board:b ~service:"kv"
             (fst (Kv.behavior ())))
      done;
      (* The stat service as one more capability-gated tile on board 0,
         reachable through netsvc like any service (E13a read it
         in-fabric; here the reader sits across the switch). *)
      let nd = Cluster.node cluster 0 in
      ignore
        (Cluster.install cluster ~board:0 ~service:Statsvc.service_name
           (Statsvc.behavior (Node.kernel nd)));
      Cluster.register_metrics cluster;
      let col = Collector.create cluster in
      let clients =
        List.init boards (fun _ ->
            Shard_client.create cluster ~timeout:20_000 ~service:"kv"
              ~op:Kv.Proto.opcode ~route:Shard_client.By_key
              ~gen:(Cluster_exp.kv_gen 64))
      in
      Sim.after sim 3_000 (fun () ->
          List.iter (fun c -> Shard_client.start c ~concurrency:8) clients);
      Sim.after sim stop_at (fun () -> List.iter Shard_client.stop clients);
      (* Pull path: a raw Netproto poller on its own client port. *)
      let mac, my_mac = Cluster.add_client cluster in
      let target = Node.mac_addr nd in
      let inflight : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let last_rx = ref 0 and last_age = ref 0 and next_id = ref 0 in
      Mac.set_rx mac (fun f ->
          if f.Frame.dst = my_mac then
            match Netproto.decode_response f.Frame.payload with
            | Error _ -> ()
            | Ok rsp -> (
              match Hashtbl.find_opt inflight rsp.Netproto.rsp_id with
              | None -> ()
              | Some t0 ->
                Hashtbl.remove inflight rsp.Netproto.rsp_id;
                incr polls;
                last_rx := Sim.now sim;
                (* the snapshot was read on the board ~RTT/2 ago *)
                last_age := (Sim.now sim - t0) / 2));
      Sim.every sim ~start:period period (fun () ->
          if Sim.now sim <= stop_at then begin
            incr next_id;
            Hashtbl.replace inflight !next_id (Sim.now sim);
            let req =
              {
                Netproto.req_id = !next_id;
                service = Statsvc.service_name;
                op = Statsvc.opcode;
                body = Statsvc.encode_query Statsvc.Board;
              }
            in
            ignore
              (Mac.send mac
                 (Frame.make ~dst:target ~src:my_mac
                    (Netproto.encode_request req)))
          end);
      (* Sample both stalenesses on the rack clock, after each side has
         had one full period plus a round trip to warm up. *)
      Sim.every sim ~start:(3 * period) 500 (fun () ->
          let now = Sim.now sim in
          if now <= stop_at then begin
            observe_stale push (Collector.staleness col ~board:0 ~now);
            observe_stale pull
              (if !last_rx = 0 then now else now - !last_rx + !last_age)
          end);
      fun () ->
        List.iter Shard_client.stop clients;
        Collector.detach col);
  obs_off ();
  (stale_mean push, push.worst, stale_mean pull, pull.worst, !polls)

(* ------------------------------------------------------------------ *)
(* E16e — the collected SLO feed. The elastic scheduler's error budget
   comes either from the shard client's local outcome hook (E14's
   omniscient shortcut) or from the collector's service-outcome stream
   — server-observed serve spans, delivered in-band. Same rack, same
   load, both runs deterministic; the gap between the two attainment
   numbers is what pushing telemetry through the fabric costs in
   fidelity (client-side timeouts never reach a server span). *)

let web_spec =
  {
    Placer.name = "web";
    cells = 20_000;
    state_bytes = 4_096;
    bitstream_bytes = 16_384;
    reservation = 1;
    max_replicas = 3;
    slo_cycles = 5_000;
    capacity_hint = 50;  (* epoch / service time (400) *)
  }

type e_row = {
  er_feed : string;
  er_ops : int;
  er_scale_ups : int;
  er_first_up : int;  (* cycle of the first scale_up, -1 if none *)
  er_attain : float;
  er_alerts : int;
  er_replicas : int;
}

let e16e_run ~feed ~duration =
  obs_on ();
  let r =
    with_rack ~boards:4 ~clients:3 ~duration (fun sim cluster ->
        let cfg =
          {
            Sched.default_config with
            Sched.report_period = 4_000;
            (* autoscale only: load-balance migrations off *)
            hot_load = max_int / 2;
            cold_load = 0;
            slo_window = 1_000;
            slo_min_samples = 4;
          }
        in
        (* Board load reaches the scheduler through the collector in
           both rows; only the attainment feed differs. *)
        let col = Collector.create cluster in
        let sched =
          Sched.create ~config:cfg ~collector:col cluster
            ~slot_cells:(fun _ -> 60_000)
        in
        Sched.add_tenant sched ~spec:web_spec ~behavior:(fun () ->
            Accels.echo ~service:"web" ~cost:400 ());
        let client =
          Shard_client.create cluster ~timeout:20_000 ~service:"web"
            ~op:Accels.op_echo ~route:Shard_client.Round_robin
            ~gen:(fun _ -> ("", Bytes.make 64 'x'))
        in
        (match feed with
        | `Collected ->
          Sched.watch_collected sched ~tenant:"web" col;
          Sched.watch_client_only sched ~tenant:"web" client
        | `Client -> Sched.watch sched ~tenant:"web" client);
        Sched.start sched;
        Sim.after sim 3_000 (fun () ->
            Shard_client.start client ~concurrency:4);
        (* diurnal peak: one replica saturates, the autoscaler must act *)
        Sim.after sim (duration / 3) (fun () ->
            Shard_client.start client ~concurrency:12);
        Sim.after sim (duration - 10_000) (fun () ->
            Shard_client.stop client);
        fun () ->
          Shard_client.stop client;
          let slo = Sched.slo sched ~tenant:"web" in
          let t = Sched.totals sched in
          let first_up =
            match
              List.find_opt
                (fun d -> d.Sched.d_kind = "scale_up")
                (Sched.decisions sched)
            with
            | Some d -> d.Sched.d_cycle
            | None -> -1
          in
          Collector.detach col;
          {
            er_feed =
              (match feed with
              | `Collected -> "collected (in-band)"
              | `Client -> "client hook (omniscient)");
            er_ops = Shard_client.completed client;
            er_scale_ups = t.Sched.scale_ups;
            er_first_up = first_up;
            er_attain = Slo.attainment_pct slo;
            er_alerts = List.length (Slo.alerts slo);
            er_replicas = Sched.replicas sched ~tenant:"web";
          })
  in
  obs_off ();
  r

(* ------------------------------------------------------------------ *)

let summary_json ~rows ~ops_off ~ops_on ~ops_fast ~pct_on ~pct_fast
    ~(stale : int * int * int * int * int) ~(e_rows : e_row list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"periods\": [\n";
  List.iteri
    (fun idx r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"period\": %d, \"ops\": %d, \"records\": %d, \"batches\": \
            %d, \"payload_bytes\": %d, \"wire_bytes\": %d, \"pct_uplink\": \
            %.3f, \"dropped\": %d, \"conserved\": %b}%s\n"
           r.ar_period r.ar_ops r.ar_records r.ar_batches r.ar_payload
           r.ar_wire r.ar_pct_uplink r.ar_dropped r.ar_conserved
           (if idx = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"interference\": {\"ops_off\": %d, \"ops_on\": %d, \"ops_fast\": \
        %d, \"pct_on\": %.2f, \"pct_fast\": %.2f},\n"
       ops_off ops_on ops_fast pct_on pct_fast);
  let pm, pw, lm, lw, polls = stale in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"staleness\": {\"push_mean\": %d, \"push_max\": %d, \"pull_mean\": \
        %d, \"pull_max\": %d, \"polls\": %d},\n"
       pm pw lm lw polls);
  Buffer.add_string buf "  \"slo_feed\": [\n";
  List.iteri
    (fun idx r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"feed\": \"%s\", \"ops\": %d, \"scale_ups\": %d, \
            \"first_scale_up\": %d, \"attainment_pct\": %.2f, \"alerts\": \
            %d, \"replicas\": %d}%s\n"
           r.er_feed r.er_ops r.er_scale_ups r.er_first_up r.er_attain
           r.er_alerts r.er_replicas
           (if idx = List.length e_rows - 1 then "" else ",")))
    e_rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let e16 () =
  header "E16"
    "in-band telemetry plane: push agents, rack collector, exemplars";
  let sm = small () in
  let boards = 4 in

  subhead "E16a: telemetry bytes on the uplink vs harvest interval";
  let a_stop = if sm then 90_000 else 180_000 in
  let periods =
    if sm then [ 500; 2_000; 8_000 ] else [ 500; 1_000; 2_000; 8_000; 32_000 ]
  in
  let a_rows =
    List.map
      (fun period ->
        e16a_run ~boards ~stop_at:a_stop ~period
          ~artifacts:(period = Agent.default_period))
      periods
  in
  table
    [
      "interval"; "ops"; "records"; "batches"; "payload B"; "wire B";
      "% uplink"; "dropped"; "books";
    ]
    (List.map
       (fun r ->
         [
           commas r.ar_period;
           i r.ar_ops;
           commas r.ar_records;
           i r.ar_batches;
           commas r.ar_payload;
           commas r.ar_wire;
           Printf.sprintf "%.3f" r.ar_pct_uplink;
           i r.ar_dropped;
           (if r.ar_conserved then "exact" else "VIOLATED");
         ])
       a_rows);
  Printf.printf
    "(wire bytes = batch payloads + %dB of Ethernet per frame, on the\n\
    \ boards' own 100G uplinks; \"books exact\" is the per-board identity\n\
    \ emitted = delivered + dropped + lost + in-flight, wire loss\n\
    \ cross-checked against the collector's gap detector. Drops grow\n\
    \ with the interval because the flush budget is per tick while the\n\
    \ span stream is not: a longer harvest interval thins counter\n\
    \ deltas, not span completions)\n"
    frame_overhead;
  Printf.printf
    "exemplars + collected trace (default interval) -> %s, %s\n"
    "BENCH_e16_exemplars.json" "BENCH_e16_trace.json";

  subhead "E16b: workload interference, agents off vs on (same drill)";
  let b_stop = a_stop in
  let _, b_duration = quiesce ~stop_at:b_stop ~period:2_000 in
  let ops_off, off50, off99 =
    e16b_run ~boards ~stop_at:b_stop ~duration:b_duration ~agent_period:None
  in
  let ops_on, on50, on99 =
    e16b_run ~boards ~stop_at:b_stop ~duration:b_duration
      ~agent_period:(Some Agent.default_period)
  in
  let ops_fast, fast50, fast99 =
    e16b_run ~boards ~stop_at:b_stop ~duration:b_duration
      ~agent_period:(Some 500)
  in
  let delta on =
    100.0 *. float_of_int (ops_off - on) /. float_of_int (max 1 ops_off)
  in
  let pct_on = delta ops_on and pct_fast = delta ops_fast in
  let row name ops l50 l99 d =
    [
      name; i ops;
      f1 (throughput_per_sec ~count:ops ~cycles:b_stop /. 1000.0);
      i l50; i l99; d;
    ]
  in
  table
    [ "agents"; "ops"; "kops/s"; "p50"; "p99"; "ops vs off" ]
    [
      row "off" ops_off off50 off99 "-";
      row
        (Printf.sprintf "on, every %s" (commas Agent.default_period))
        ops_on on50 on99
        (Printf.sprintf "%+.2f%%" (-.pct_on));
      row "on, every 500" ops_fast fast50 fast99
        (Printf.sprintf "%+.2f%%" (-.pct_fast));
    ];

  subhead "E16c: conservation under congestion (port down + starved queue)";
  let kill_at, restore_at, c_stop =
    if sm then (40_000, 80_000, 130_000) else (80_000, 160_000, 240_000)
  in
  let c_ops, c_rows =
    e16c_run ~boards ~victim:2 ~kill_at ~restore_at ~stop_at:c_stop
  in
  table
    [
      "board"; "emitted"; "delivered"; "dropped@agent"; "lost wire";
      "gap-detected"; "in flight"; "backpressure"; "books";
    ]
    (List.map
       (fun r ->
         [
           i r.ac_board;
           commas r.ac_emitted;
           commas r.ac_delivered;
           commas r.ac_dropped;
           commas r.ac_lost;
           commas r.ac_detected;
           i r.ac_queued;
           i r.ac_backpressure;
           (if
              r.ac_emitted
              = r.ac_delivered + r.ac_dropped + r.ac_lost + r.ac_queued
              && r.ac_lost = r.ac_detected
            then "exact"
            else "VIOLATED");
         ])
       c_rows);
  Printf.printf
    "%d ops; board 2's port was down %s..%s (its agent kept sending into\n\
     the void), every agent ran a 96-record queue at one 512B frame per\n\
     tick -> %s\n"
    c_ops (commas kill_at) (commas restore_at) "BENCH_e16_conservation.json";

  subhead "E16d: freshness at the rack, push vs stat-service pull";
  let d_stop = if sm then 90_000 else 150_000 in
  let pm, pw, lm, lw, polls = e16d_run ~boards ~stop_at:d_stop in
  table
    [ "plane"; "mean staleness"; "us"; "max"; "us" ]
    [
      [ "push (collector)"; commas pm; f1 (us_of_cycles pm); commas pw;
        f1 (us_of_cycles pw) ];
      [ Printf.sprintf "pull (stat poll x%d)" polls; commas lm;
        f1 (us_of_cycles lm); commas lw; f1 (us_of_cycles lw) ];
    ];
  Printf.printf
    "(same 100G switch, same %s-cycle cadence: freshness ties, as it\n\
    \ must — the difference is payload and scaling. One poll returns one\n\
    \ board-wide Perf snapshot per round trip; one push batch carries\n\
    \ every instrument delta plus sampled span completions, for the\n\
    \ whole rack, with loss-exact accounting)\n"
    (commas Agent.default_period);

  subhead "E16e: autoscaler fed by collected spans vs the client hook";
  let e_duration = if sm then 150_000 else 300_000 in
  let e_rows =
    [
      e16e_run ~feed:`Client ~duration:e_duration;
      e16e_run ~feed:`Collected ~duration:e_duration;
    ]
  in
  table
    [
      "SLO feed"; "ops"; "scale-ups"; "first at"; "attain %"; "alerts";
      "replicas";
    ]
    (List.map
       (fun r ->
         [
           r.er_feed;
           i r.er_ops;
           i r.er_scale_ups;
           (if r.er_first_up < 0 then "-" else commas r.er_first_up);
           f2 r.er_attain;
           i r.er_alerts;
           i r.er_replicas;
         ])
       e_rows);
  Printf.printf
    "(the collected feed sees server-observed serve time and misses\n\
    \ client-side timeouts; the scale-up decision itself should agree)\n";

  write_file "BENCH_e16_telemetry.json"
    (summary_json ~rows:a_rows ~ops_off ~ops_on ~ops_fast ~pct_on ~pct_fast
       ~stale:(pm, pw, lm, lw, polls) ~e_rows);
  Printf.printf "\nsummary -> BENCH_e16_telemetry.json\n"
