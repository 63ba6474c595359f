(* The in-band telemetry plane: batch wire format, the agent's bounded
   queue and its books, and the collector's conservation accounting
   under a real mid-run port kill. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Kv = Apiary_accel.Kv
module Cluster = Apiary_cluster.Cluster
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
module Agent = Apiary_obs.Agent
module Wire = Apiary_obs.Agent.Wire
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Env = Apiary_obs.Env

(* ------------------------------------------------------------------ *)
(* Wire format *)

let sample_records =
  [
    Wire.Counter_delta ("b0.kernel.msgs_out", 42);
    Wire.Gauge_value ("b0.noc.r0_0.util", 0.125);
    Wire.Hist_delta ("b0.noc.latency", [ (0, 3); (7, 1) ]);
    Wire.Span_done
      {
        Wire.s_name = "serve";
        s_cat = "net";
        s_corr = 0;
        s_track = 5;
        s_ts = 1_000;
        s_dur = 250;
        s_args = [ ("req_id", "17"); ("status", "ok") ];
      };
  ]

let test_wire_roundtrip () =
  let payload =
    Wire.encode_batch ~board:3 ~seq:9 ~ts:12_345 ~cum_records:100
      ~cum_dropped:7
      (List.map Wire.encode_record sample_records)
  in
  match Wire.decode_batch payload with
  | None -> Alcotest.fail "decode of a well-formed batch failed"
  | Some b ->
    Alcotest.(check int) "board" 3 b.Wire.b_board;
    Alcotest.(check int) "seq" 9 b.Wire.b_seq;
    Alcotest.(check int) "ts" 12_345 b.Wire.b_ts;
    Alcotest.(check int) "cum records" 100 b.Wire.b_cum_records;
    Alcotest.(check int) "cum dropped" 7 b.Wire.b_cum_dropped;
    Alcotest.(check bool) "records round-trip" true
      (b.Wire.b_records = sample_records)

let test_wire_rejects_garbage () =
  let payload =
    Wire.encode_batch ~board:0 ~seq:1 ~ts:0 ~cum_records:0 ~cum_dropped:0
      (List.map Wire.encode_record sample_records)
  in
  (* Wrong magic: not ours, not an error to skip. *)
  let bad = Bytes.copy payload in
  Bytes.set bad 0 'X';
  Alcotest.(check bool) "bad magic rejected" true
    (Wire.decode_batch bad = None);
  (* Truncation anywhere in the body must never raise. *)
  for len = 0 to Bytes.length payload - 1 do
    ignore (Wire.decode_batch (Bytes.sub payload 0 len))
  done;
  Alcotest.(check bool) "truncated header rejected" true
    (Wire.decode_batch (Bytes.sub payload 0 (Wire.header_bytes - 1)) = None)

(* ------------------------------------------------------------------ *)
(* Agent queue accounting *)

(* 8 fresh counters harvested into a 4-slot queue with the device
   refusing the flush: the 4 oldest records fall out, the books still
   balance, and the next (accepted) flush ships exactly the survivors
   with the drop count riding the header. *)
let test_agent_drop_oldest () =
  let sim = Sim.create () in
  let registry = Registry.create () in
  let sent = ref [] in
  let accept = ref false in
  let send payload =
    if !accept then begin
      sent := payload :: !sent;
      true
    end
    else false
  in
  let a =
    Agent.create ~period:100 ~queue_cap:4 ~batch_bytes:4_096 ~sim ~board:0
      ~registry ~send ()
  in
  for i = 0 to 7 do
    Stats.Counter.add (Registry.counter registry (Printf.sprintf "t9.c%d" i)) (i + 1)
  done;
  Agent.tick a ~now:100;
  Alcotest.(check int) "emitted all 8" 8 (Agent.emitted a);
  Alcotest.(check int) "oldest 4 dropped" 4 (Agent.dropped a);
  Alcotest.(check int) "4 still queued" 4 (Agent.queued a);
  Alcotest.(check int) "nothing shipped yet" 0 (Agent.sent_records a);
  Alcotest.(check bool) "backpressure recorded" true (Agent.backpressure a > 0);
  Alcotest.(check int) "local identity" (Agent.emitted a)
    (Agent.sent_records a + Agent.dropped a + Agent.queued a);
  accept := true;
  Agent.tick a ~now:200;
  Alcotest.(check int) "survivors shipped" 4 (Agent.sent_records a);
  Alcotest.(check int) "queue drained" 0 (Agent.queued a);
  (match !sent with
  | [ payload ] -> (
    match Wire.decode_batch payload with
    | None -> Alcotest.fail "shipped batch must decode"
    | Some b ->
      Alcotest.(check int) "header carries the drops" 4 b.Wire.b_cum_dropped;
      let names =
        List.filter_map
          (function Wire.Counter_delta (n, _) -> Some n | _ -> None)
          b.Wire.b_records
      in
      (* Drop-oldest keeps the newest data: c4..c7 survive. *)
      Alcotest.(check (list string)) "newest records survive"
        [ "t9.c4"; "t9.c5"; "t9.c6"; "t9.c7" ] names)
  | l -> Alcotest.failf "expected exactly one batch, got %d" (List.length l));
  Agent.detach a

let counter_names payloads =
  List.concat_map
    (fun p ->
      match Wire.decode_batch p with
      | None -> Alcotest.fail "shipped batch must decode"
      | Some b ->
        List.filter_map
          (function Wire.Counter_delta (n, _) -> Some n | _ -> None)
          b.Wire.b_records)
    (List.rev payloads)

(* Ownership, not naming, decides what an agent ships: an instrument in
   board 1's registry never leaves through board 0's agent, even when
   its name claims board 0. *)
let test_agent_ships_only_its_registry () =
  let sim = Sim.create () in
  let reg0 = Registry.create () and reg1 = Registry.create () in
  let sent0 = ref [] and sent1 = ref [] in
  let agent board registry sent =
    Agent.create ~period:100 ~sim ~board ~registry
      ~send:(fun p -> sent := p :: !sent; true)
      ()
  in
  let a0 = agent 0 reg0 sent0 and a1 = agent 1 reg1 sent1 in
  Stats.Counter.add (Registry.counter reg0 "b0.own") 1;
  Stats.Counter.add (Registry.counter reg1 "b0.spoof") 2;
  Agent.tick a0 ~now:100;
  Agent.tick a1 ~now:100;
  Alcotest.(check (list string)) "board 0 ships only its own registry"
    [ "b0.own" ] (counter_names !sent0);
  Alcotest.(check (list string)) "board 1 ships what it owns"
    [ "b0.spoof" ] (counter_names !sent1);
  Agent.detach a0;
  Agent.detach a1

(* ------------------------------------------------------------------ *)
(* Collector conservation under a port kill *)

let test_collector_conservation () =
  Registry.clear ();
  Span.reset ();
  Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.set_sampling ();
      Span.reset ();
      Registry.clear ())
    (fun () ->
      let eng = Cluster.make_engine ~boards:2 () in
      let sim = Par_sim.sim eng 0 in
      let cluster = Cluster.create ~engine:eng sim ~boards:2 ~client_ports:2 in
      for b = 0 to 1 do
        ignore
          (Cluster.install cluster ~board:b ~service:"kv"
             (fst (Kv.behavior ())))
      done;
      Cluster.register_metrics cluster;
      (* Starved agents (an 8-record queue, one small frame per tick)
         so the run forces both real wire loss and agent-side drops. *)
      let col =
        Collector.create ~agent_period:500 ~agent_queue:8
          ~agent_batch_bytes:512 ~agent_max_frames:1 ~agent_until:33_000
          cluster
      in
      let sc =
        Shard_client.create cluster ~timeout:10_000 ~service:"kv"
          ~op:Kv.Proto.opcode ~route:Shard_client.By_key
          ~gen:(fun n ->
            (Printf.sprintf "k%03d" (n mod 64), Bytes.make 32 'x'))
      in
      Sim.after sim 2_000 (fun () -> Shard_client.start sc ~concurrency:4);
      Sim.after sim 10_000 (fun () -> Cluster.kill cluster ~board:1);
      Sim.after sim 20_000 (fun () -> Cluster.restore cluster ~board:1);
      Sim.after sim 30_000 (fun () -> Shard_client.stop sc);
      Par_sim.run_for eng 40_000;
      for b = 0 to 1 do
        let a = Collector.agent col b in
        let delivered = Collector.delivered col ~board:b in
        let lost = Agent.sent_records a - delivered in
        let emitted = Agent.emitted a in
        Alcotest.(check int)
          (Printf.sprintf "board %d books balance" b)
          emitted
          (delivered + Agent.dropped a + lost + Agent.queued a);
        Alcotest.(check int)
          (Printf.sprintf "board %d gap detection is exact" b)
          lost
          (Collector.lost_records_detected col ~board:b)
      done;
      let victim = Collector.agent col 1 in
      Alcotest.(check bool) "victim lost real records on the wire" true
        (Agent.sent_records victim - Collector.delivered col ~board:1 > 0);
      Alcotest.(check bool) "victim dropped at the agent too" true
        (Agent.dropped victim > 0);
      Alcotest.(check bool) "collector saw the sequence gap" true
        (Collector.lost_batches col ~board:1 > 0);
      Alcotest.(check bool) "survivor lost nothing" true
        (Agent.sent_records (Collector.agent col 0)
         = Collector.delivered col ~board:0);
      Collector.detach col)

(* ------------------------------------------------------------------ *)
(* Liveness on the agent stream *)

(* Boards with no registered instruments and no spans: every agent tick
   finds its queue empty, so each must still ship exactly one
   header-only batch (the heartbeat), and the liveness sweep must never
   take that silence-free idleness for a death. *)
let test_idle_board_heartbeats () =
  Registry.clear ();
  let boards = 2 and period = 500 and cycles = 200_000 in
  let until = cycles - 2_000 in
  let eng = Cluster.make_engine ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:1
  in
  let col = Collector.create ~agent_period:period ~agent_until:until cluster in
  Collector.watch_liveness col;
  Par_sim.run_until eng cycles;
  Par_sim.shutdown eng;
  Collector.detach col;
  let total = ref 0 in
  for b = 0 to boards - 1 do
    let a = Collector.agent col b in
    (* ticks at period + b, period + b + period, ... up to [until] *)
    let ticks = ((until - (period + b)) / period) + 1 in
    total := !total + ticks;
    Alcotest.(check int) (Printf.sprintf "board %d: nothing emitted" b) 0
      (Agent.emitted a);
    Alcotest.(check int)
      (Printf.sprintf "board %d: one batch per period" b)
      ticks (Agent.sent_batches a);
    Alcotest.(check int)
      (Printf.sprintf "board %d: every batch header-only" b)
      (ticks * Wire.header_bytes) (Agent.sent_bytes a)
  done;
  Alcotest.(check int) "collector received every heartbeat" !total
    (Collector.rx_frames col);
  Alcotest.(check (list (pair int int))) "idle boards never declared down" []
    (Collector.detections col);
  Registry.clear ()

(* ------------------------------------------------------------------ *)
(* Registry ownership at rack scale *)

let rack ~boards =
  let eng = Cluster.make_engine ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:1
  in
  Cluster.register_metrics cluster;
  (eng, cluster)

let snapshot_names () = List.map fst (Registry.snapshot ())

(* [collected.b<i>.b<j>.…]: a board prefix applied twice. *)
let doubly_prefixed name =
  let board s =
    String.length s > 1
    && s.[0] = 'b'
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub s 1 (String.length s - 1))
  in
  match String.split_on_char '.' name with
  | "collected" :: a :: b :: _ -> board a && board b
  | _ -> false

let test_collected_names () =
  Registry.clear ();
  let eng, cluster = rack ~boards:2 in
  let col = Collector.create ~agent_period:500 ~agent_until:8_000 cluster in
  Par_sim.run_until eng 10_000;
  Par_sim.shutdown eng;
  Collector.detach col;
  let names = snapshot_names () in
  Alcotest.(check bool) "collected.b1.kernel.msgs_out mirrored" true
    (List.mem "collected.b1.kernel.msgs_out" names);
  Alcotest.(check (list string)) "no doubled board prefix" []
    (List.filter doubly_prefixed names);
  Registry.clear ()

(* A rebuilt rack replaces the old one's instruments, with no clear in
   between: the snapshot is exactly what the new rack alone shows. *)
let test_rebuilt_rack_replaces () =
  Registry.clear ();
  ignore (rack ~boards:4);
  Alcotest.(check bool) "first rack's b3 present" true
    (List.mem "b3.kernel.msgs_out" (snapshot_names ()));
  ignore (rack ~boards:2);
  let after = snapshot_names () in
  Registry.clear ();
  ignore (rack ~boards:2);
  let alone = snapshot_names () in
  Alcotest.(check (list string)) "only the second rack's names" alone after;
  Alcotest.(check bool) "no b2.*/b3.* left behind" false
    (List.exists
       (fun n ->
         String.starts_with ~prefix:"b2." n || String.starts_with ~prefix:"b3." n)
       after);
  Registry.clear ()

(* ------------------------------------------------------------------ *)
(* Env fallback *)

let test_env_fallback () =
  Unix.putenv "APIARY_TEST_TELEM_KNOB" "banana";
  Alcotest.(check int) "garbage falls back to default" 7
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  (* The warning is one-shot; a second read must stay quiet and still
     return the default rather than raising or caching garbage. *)
  Alcotest.(check int) "second read same fallback" 7
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  Unix.putenv "APIARY_TEST_TELEM_KNOB" "12";
  Alcotest.(check int) "valid value parses" 12
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  Alcotest.(check int) "below min falls back" 7
    (Env.int ~min:100 "APIARY_TEST_TELEM_KNOB" ~default:7)

let () =
  Alcotest.run "telemetry"
    [
      ( "wire",
        [
          Alcotest.test_case "batch roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_wire_rejects_garbage;
        ] );
      ( "agent",
        [
          Alcotest.test_case "drop-oldest accounting" `Quick
            test_agent_drop_oldest;
          Alcotest.test_case "ships only its board's registry" `Quick
            test_agent_ships_only_its_registry;
        ] );
      ( "collector",
        [
          Alcotest.test_case "conservation under kill" `Quick
            test_collector_conservation;
          Alcotest.test_case "idle boards heartbeat, never declared down"
            `Quick test_idle_board_heartbeats;
          Alcotest.test_case "mirrors named collected.<name>" `Quick
            test_collected_names;
          Alcotest.test_case "rebuilt rack replaces the old" `Quick
            test_rebuilt_rack_replaces;
        ] );
      ( "env", [ Alcotest.test_case "tolerant fallback" `Quick test_env_fallback ] );
    ]
