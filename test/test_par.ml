(* The conservative parallel-in-time engine's load-bearing claim is
   determinism: for a fixed seed the partitioned simulation — in either
   execution mode — must be byte-identical to the reference. Three
   layers of checks:

   - Par_sim unit: barrier merge order is (time, src, seq) regardless of
     posting order, and a post inside the open window raises.
   - Mesh: a striped mesh (monolithic vs Seq vs Par) delivers the exact
     same packets with the exact same latencies and router activity.
   - Rack (E12-small shape): a 2-board cluster under a client-driven
     sharded workload produces identical traces, client stats and span
     exports in Seq and Par modes. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Flight = Apiary_obs.Flight
module Mesh = Apiary_noc.Mesh
module Traffic = Apiary_noc.Traffic
module Coord = Apiary_noc.Coord
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Shard_client = Apiary_cluster.Shard_client
module Span = Apiary_obs.Span
module Export = Apiary_obs.Export

(* ------------------------------------------------------------------ *)
(* Par_sim unit *)

let test_merge_order () =
  let eng = Par_sim.create ~lookahead:5 ~n:3 () in
  let log = ref [] in
  (* Members 2 then 1 stage posts for the same cycle; the barrier must
     reorder them to (time, src, seq) no matter who posted first. *)
  List.iter
    (fun src ->
      Sim.at (Par_sim.sim eng src) 1 (fun () ->
          Par_sim.post eng ~src ~dst:0 ~time:12 (fun () ->
              log := (12, src, 'b') :: !log);
          Par_sim.post eng ~src ~dst:0 ~time:10 (fun () ->
              log := (10, src, 'a') :: !log)))
    [ 2; 1 ];
  Par_sim.run_until eng 20;
  Alcotest.(check (list (triple int int char)))
    "delivery order is (time, src, seq)"
    [ (10, 1, 'a'); (10, 2, 'a'); (12, 1, 'b'); (12, 2, 'b') ]
    (List.rev !log)

let test_lookahead_violation_raises () =
  let eng = Par_sim.create ~lookahead:5 ~n:2 () in
  Sim.at (Par_sim.sim eng 1) 1 (fun () ->
      (* Cycle 3 is inside the open window [0, 5): the receiving member
         may already have simulated past it. *)
      Par_sim.post eng ~src:1 ~dst:0 ~time:3 (fun () -> ()));
  match Par_sim.run_until eng 10 with
  | () -> Alcotest.fail "lookahead violation went undetected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the violation" true
      (String.length msg > 0
      && String.sub msg 0 12 = "Par_sim.post")

let test_single_partition_no_windows () =
  let eng = Par_sim.create ~lookahead:4 ~n:1 () in
  let hits = ref 0 in
  Sim.every (Par_sim.sim eng 0) 10 (fun () -> incr hits);
  Par_sim.run_until eng 100;
  (* Fires at 10, 20, …, 90 — cycle 100 is the target, not executed. *)
  Alcotest.(check int) "events ran" 9 !hits;
  Alcotest.(check int) "clock advanced" 100 (Par_sim.now eng)

(* ------------------------------------------------------------------ *)
(* Mesh cross-check: monolithic vs striped Seq vs striped Par *)

let hist_sig h =
  Printf.sprintf "n=%d sum=%d min=%d max=%d p50=%d p99=%d"
    (Stats.Histogram.count h) (Stats.Histogram.sum h)
    (Stats.Histogram.min_value h) (Stats.Histogram.max_value h)
    (Stats.Histogram.percentile h 50.0) (Stats.Histogram.percentile h 99.0)

let mesh_fingerprint mesh ~offered =
  let flits =
    List.map (fun c -> Apiary_noc.Router.flits_routed (Mesh.router_at mesh c))
      (Mesh.coords mesh)
  in
  Printf.sprintf "offered=%d sent=%d delivered=%d backlog=%d\nflits=%s\nlat[%s]\ncls0[%s]\ncls1[%s]\nhops[%s]"
    offered (Mesh.packets_sent mesh) (Mesh.packets_delivered mesh)
    (Mesh.tx_backlog mesh)
    (String.concat "," (List.map string_of_int flits))
    (hist_sig (Mesh.latency mesh))
    (hist_sig (Mesh.latency_of_class mesh 0))
    (hist_sig (Mesh.latency_of_class mesh 1))
    (hist_sig (Mesh.hop_histogram mesh))

let run_mesh engine_mode cycles =
  let cfg = { Mesh.default_config with Mesh.qos = true } in
  match engine_mode with
  | None ->
    let sim = Sim.create () in
    let mesh = Mesh.create sim cfg in
    let gen =
      Traffic.start mesh ~rng:(Rng.create ~seed:11) ~pattern:Traffic.Uniform
        ~rate:0.08 ~payload_bytes:48 ~cls:1 ~payload:() ()
    in
    Sim.run_until sim cycles;
    Traffic.stop_gen gen;
    mesh_fingerprint mesh ~offered:(Traffic.offered gen)
  | Some (mode, sync, adaptive) ->
    let eng = Par_sim.create ~mode ~sync ~adaptive ~lookahead:1 ~n:2 () in
    let mesh = Mesh.create ~engine:eng (Par_sim.sim eng 0) cfg in
    (* One generator replica per stripe, identically seeded: replicas
       draw the same RNG stream and partition the injections. *)
    let gens =
      List.init (Mesh.stripes mesh) (fun s ->
          Traffic.start mesh ~rng:(Rng.create ~seed:11)
            ~pattern:Traffic.Uniform ~rate:0.08 ~payload_bytes:48 ~cls:1
            ~stripe:s ~payload:() ())
    in
    Par_sim.run_until eng cycles;
    Par_sim.shutdown eng;
    List.iter Traffic.stop_gen gens;
    let offered = List.fold_left (fun a g -> a + Traffic.offered g) 0 gens in
    mesh_fingerprint mesh ~offered

let fixed_barrier mode = Some (mode, Par_sim.Barrier, false)

let test_mesh_partitioned_matches_monolithic () =
  let cycles = 6_000 in
  let mono = run_mesh None cycles in
  let seq = run_mesh (fixed_barrier Par_sim.Seq) cycles in
  Alcotest.(check string) "striped Seq == monolithic" mono seq;
  (* Sanity: the workload exercised the boundary. *)
  Alcotest.(check bool) "packets flowed" true
    (String.length mono > 0 && not (String.length mono = 0))

let test_mesh_par_matches_seq () =
  let cycles = 6_000 in
  let seq = run_mesh (fixed_barrier Par_sim.Seq) cycles in
  let par = run_mesh (fixed_barrier Par_sim.Par) cycles in
  Alcotest.(check string) "striped Par == striped Seq" seq par

(* Every discipline shares the canonical delivery schedule, so neighbor
   sync and adaptive windows must not move a single byte. *)
let test_mesh_disciplines_agree () =
  let cycles = 6_000 in
  let reference = run_mesh (fixed_barrier Par_sim.Seq) cycles in
  let neighbor =
    run_mesh (Some (Par_sim.Par, Par_sim.Neighbor, false)) cycles
  in
  Alcotest.(check string) "Neighbor Par == Barrier Seq" reference neighbor;
  let adaptive = run_mesh (Some (Par_sim.Par, Par_sim.Barrier, true)) cycles in
  Alcotest.(check string) "adaptive Par == fixed Seq" reference adaptive

(* ------------------------------------------------------------------ *)
(* Rack cross-check (E12-small shape): Seq vs Par *)

let event_to_string e =
  Format.asprintf "%a" Flight.pp_entry e

let run_rack ?domains mode cycles =
  let boards = 2 in
  let eng = Cluster.make_engine ~mode ?domains ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:2
  in
  for bd = 0 to boards - 1 do
    ignore
      (Cluster.install cluster ~board:bd ~service:"mirror"
         (Accels.echo ~service:"mirror" ()))
  done;
  let client =
    Shard_client.create cluster ~timeout:15_000 ~service:"mirror"
      ~op:Accels.op_echo ~route:Shard_client.By_key
      ~gen:(fun n ->
        (Printf.sprintf "key-%04d" (n mod 64), Bytes.of_string "ping"))
  in
  Cluster.set_tracing cluster true;
  Sim.after (Cluster.sim cluster) 1_000 (fun () ->
      Shard_client.start client ~concurrency:4);
  Par_sim.run_until eng cycles;
  Shard_client.stop client;
  Par_sim.shutdown eng;
  let trace = List.map event_to_string (Cluster.merged_trace cluster) in
  let stats =
    Printf.sprintf "issued=%d completed=%d errors=%d failovers=%d lat[%s]"
      (Shard_client.issued client) (Shard_client.completed client)
      (Shard_client.errors client) (Shard_client.failovers client)
      (hist_sig (Shard_client.latency client))
  in
  (stats, trace)

let test_rack_par_matches_seq () =
  let cycles = 60_000 in
  let stats_seq, trace_seq = run_rack Par_sim.Seq cycles in
  let stats_par, trace_par = run_rack Par_sim.Par cycles in
  Alcotest.(check string) "client stats identical" stats_seq stats_par;
  Alcotest.(check int) "trace length identical" (List.length trace_seq)
    (List.length trace_par);
  Alcotest.(check (list string)) "traces byte-identical" trace_seq trace_par;
  (* The workload must actually have crossed partition boundaries. *)
  Alcotest.(check bool) "requests completed" true
    (String.length stats_seq > 0 && trace_seq <> [])

(* Work stealing: fewer domains than members must not move a byte —
   members are isolated within a window, so which domain runs which
   member is pure scheduling. *)
let test_rack_work_stealing_matches () =
  let cycles = 60_000 in
  let stats_seq, trace_seq = run_rack Par_sim.Seq cycles in
  let stats_steal, trace_steal = run_rack ~domains:2 Par_sim.Par cycles in
  Alcotest.(check string) "stats identical under stealing" stats_seq stats_steal;
  Alcotest.(check (list string)) "traces identical under stealing" trace_seq
    trace_steal

(* Spans recorded by several domains at once: boards hit the same cycle
   all the time, and the exported trace must not depend on which domain
   got to the recorder first. *)
let rack_span_export ?domains mode =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    (fun () ->
      ignore (run_rack ?domains mode 60_000);
      Export.chrome_trace_string (Span.events ()))

let test_rack_span_export_matches () =
  let seq = rack_span_export Par_sim.Seq in
  Alcotest.(check bool) "spans were recorded" true
    (String.length seq > 10_000);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "Par (%d domains) export == Seq" domains)
        seq
        (rack_span_export ~domains Par_sim.Par))
    [ 2; 3 ]

let test_domains_clamped_and_reported () =
  let eng = Par_sim.create ~domains:99 ~lookahead:2 ~n:3 () in
  Alcotest.(check int) "clamped to n" 3 (Par_sim.domains_used eng);
  Alcotest.(check int) "n_domains is member count" 3 (Par_sim.n_domains eng);
  let eng2 = Par_sim.create ~domains:2 ~lookahead:2 ~n:3 () in
  Alcotest.(check int) "explicit cap kept" 2 (Par_sim.domains_used eng2)

let test_neighbor_undersubscribed_rejected () =
  Alcotest.check_raises "Neighbor needs one domain per member"
    (Invalid_argument
       "Par_sim.create: Neighbor sync pins one domain per member (domains = n)")
    (fun () ->
      ignore
        (Par_sim.create ~mode:Par_sim.Par ~sync:Par_sim.Neighbor ~domains:2
           ~lookahead:1 ~n:4 ()))

(* ------------------------------------------------------------------ *)
(* qcheck properties: canonical delivery and window bounds.

   Synthetic cross-partition workload: member k fires every (3 + k)
   cycles and stamps a neighbor at [now + lookahead + jitter], the
   jitter a pure function of time (no shared state). Logs are
   per-member — written only by the owning domain — and concatenated
   after the run, so the fingerprint is race-free under real Par
   execution. *)

let run_synth ~mode ~sync ~adaptive ~lookahead ~n ~total ~chunks =
  let eng = Par_sim.create ~mode ~sync ~adaptive ~lookahead ~n () in
  let logs = Array.make n [] in
  for k = 0 to n - 1 do
    let src_sim = Par_sim.sim eng k in
    let dst = if k + 1 < n then k + 1 else k - 1 in
    Sim.every src_sim (3 + k) (fun () ->
        let now = Sim.now src_sim in
        let time = now + lookahead + (now mod 3) in
        Par_sim.post eng ~src:k ~dst ~time (fun () ->
            logs.(dst) <- (Sim.now (Par_sim.sim eng dst), k) :: logs.(dst)))
  done;
  (* Random window placement: advance in caller-chosen chunks, then to
     the common target. Canonical delivery makes the result independent
     of this schedule. *)
  List.iter
    (fun c -> Par_sim.run_until eng (min total (Par_sim.now eng + c)))
    chunks;
  Par_sim.run_until eng total;
  Par_sim.shutdown eng;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun d l ->
      List.iter
        (fun (t, s) -> Buffer.add_string buf (Printf.sprintf "%d<%d@%d;" d s t))
        (List.rev l))
    logs;
  (Buffer.contents buf, Par_sim.window_stats eng)

type synth_cfg = {
  c_n : int;
  c_lookahead : int;
  c_adaptive : bool;
  c_neighbor : bool;
  c_chunks : int list;
}

let cfg_arb =
  let gen =
    QCheck.Gen.(
      let* c_n = int_range 2 4 in
      let* c_lookahead = int_range 1 6 in
      let* c_adaptive = bool in
      let* c_neighbor = bool in
      let* c_chunks = list_size (int_range 0 6) (int_range 1 97) in
      return { c_n; c_lookahead; c_adaptive; c_neighbor; c_chunks })
  in
  let print c =
    Printf.sprintf "{n=%d; lookahead=%d; adaptive=%b; neighbor=%b; chunks=[%s]}"
      c.c_n c.c_lookahead c.c_adaptive c.c_neighbor
      (String.concat ";" (List.map string_of_int c.c_chunks))
  in
  QCheck.make ~print gen

let synth_of c mode ~chunks =
  run_synth ~mode
    ~sync:(if c.c_neighbor then Par_sim.Neighbor else Par_sim.Barrier)
    ~adaptive:c.c_adaptive ~lookahead:c.c_lookahead ~n:c.c_n ~total:500 ~chunks

let prop_delivery_canonical =
  QCheck.Test.make ~count:25 ~name:"Seq == Par across random schedules"
    cfg_arb (fun c ->
      let fp_chunked, _ = synth_of c Par_sim.Seq ~chunks:c.c_chunks in
      let fp_whole, _ = synth_of c Par_sim.Seq ~chunks:[] in
      let fp_par, _ = synth_of c Par_sim.Par ~chunks:c.c_chunks in
      fp_chunked = fp_whole && fp_whole = fp_par && String.length fp_whole > 0)

let prop_window_bounds =
  QCheck.Test.make ~count:25 ~name:"window widths stay in [1, bound]"
    cfg_arb (fun c ->
      let _, (count, min_w, max_w) = synth_of c Par_sim.Seq ~chunks:c.c_chunks in
      count >= 1 && min_w >= 1
      && max_w <= 500
      && ((c.c_adaptive && not c.c_neighbor) || max_w <= c.c_lookahead))

let () =
  Alcotest.run "par"
    [
      ( "par_sim",
        [
          Alcotest.test_case "merge order" `Quick test_merge_order;
          Alcotest.test_case "lookahead violation raises" `Quick
            test_lookahead_violation_raises;
          Alcotest.test_case "single partition" `Quick
            test_single_partition_no_windows;
          QCheck_alcotest.to_alcotest prop_delivery_canonical;
          QCheck_alcotest.to_alcotest prop_window_bounds;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "striped == monolithic" `Quick
            test_mesh_partitioned_matches_monolithic;
          Alcotest.test_case "Par == Seq" `Quick test_mesh_par_matches_seq;
          Alcotest.test_case "disciplines agree" `Quick
            test_mesh_disciplines_agree;
        ] );
      ( "rack",
        [
          Alcotest.test_case "Par == Seq (E12-small shape)" `Quick
            test_rack_par_matches_seq;
          Alcotest.test_case "work stealing == Seq" `Quick
            test_rack_work_stealing_matches;
          Alcotest.test_case "span export Par == Seq" `Quick
            test_rack_span_export_matches;
        ] );
      ( "domains",
        [
          Alcotest.test_case "clamped and reported" `Quick
            test_domains_clamped_and_reported;
          Alcotest.test_case "Neighbor undersubscription rejected" `Quick
            test_neighbor_undersubscribed_rejected;
        ] );
    ]
