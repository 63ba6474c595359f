(* The three benchmark workloads. Each builds its system through public
   constructors (timed by the caller's tracer), and returns a [built]
   record the episode runner drives: advance the engine, read the
   layer counters, then report simulated metrics and output checks.

   Inputs are a pure function of the seed: the NoC injection stream is
   drawn from [Rng.create ~seed], and the rack key streams are generated
   by [inputs] before set-up starts, so neither [setup_s] nor [wall_s]
   counts them, and handed to the clients as fixed arrays. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Mesh = Apiary_noc.Mesh
module Traffic = Apiary_noc.Traffic
module Coord = Apiary_noc.Coord
module Packet = Apiary_noc.Packet
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Node = Apiary_cluster.Node
module Shard_client = Apiary_cluster.Shard_client
module Collector = Apiary_cluster.Collector
module Sched = Apiary_sched.Sched
module Placer = Apiary_sched.Placer
module Slo = Apiary_obs.Slo
module Span = Apiary_obs.Span
module Agent = Apiary_obs.Agent
module Registry = Apiary_obs.Registry

let names = [ "noc-mesh"; "rack-kv"; "rack-elastic" ]

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

type report = {
  attempted : int;  (** packets offered / requests issued *)
  ok : int;  (** packets delivered / successful requests *)
  failed : int;  (** operations lost: never delivered, or never answered *)
  outcomes : int;  (** packets offered / request outcomes, good or not *)
  failed_outcomes : int;  (** packets undelivered / [None] outcomes *)
  ops_per_kcycle : float;
  p50 : float;
  p99 : float;
  slo_pct : float;
  instruments : int;
      (** Registry instruments at the end of the run, less the
          profiler's own [prof.*] rows (present only when traced) *)
  digest : int;  (** fingerprint of the seed-derived input stream *)
  checks : check list;
}

(* A wall-clock timer for calls into the system under test, supplied by
   the episode runner: [timed name f] runs [f] under span [name]. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

type built = {
  view : Probe.view;
  mode : string;  (** "sim" (plain Sim), "seq" or "par" (Par_sim) *)
  domains_used : int;
  engine : Par_sim.t option;
  now : unit -> int;
  advance : int -> unit;  (** run_until an absolute cycle *)
  slice : int;  (** run-phase slice, simulated cycles *)
  horizon : int;  (** the run phase ends at or after this cycle ... *)
  finished : unit -> bool;  (** ... once this holds (drain condition) *)
  max_cycles : int;  (** hard stop for the drain *)
  report : timer -> report;
}

(* Integer fingerprint mixed one value at a time (FNV-1a style, 62-bit). *)
let mix h v = ((h lxor (v land 0x3fffffff)) * 0x100000001b3) land 0x3fffffffffffffff

(* Percentile [p] of a latency histogram, interpolated linearly between
   occupied buckets' midpoints with each bucket's mass centred on its
   midpoint. [Histogram.percentile] returns a bucket midpoint, so a
   median sitting on the 14/15-cycle boundary would jump a whole bucket
   between seeds; this moves smoothly with the distribution. *)
let percentile h p =
  let n = Stats.Histogram.count h in
  let rank = p /. 100.0 *. float_of_int n in
  let rec go prev cum = function
    | [] -> fst prev
    | (i, c) :: rest ->
      let v = float_of_int (Stats.Histogram.bucket_value i) in
      let centre = float_of_int cum +. (float_of_int c /. 2.0) in
      let pv, pc = prev in
      if rank <= centre then
        if Float.is_nan pv || centre = pc then v
        else pv +. ((v -. pv) *. (rank -. pc) /. (centre -. pc))
      else go (v, centre) (cum + c) rest
  in
  if n = 0 then 0.0 else go (nan, 0.0) 0 (Stats.Histogram.nonzero_buckets h)

let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b

let count_instruments () =
  List.length
    (List.filter
       (fun (name, _) -> not (String.starts_with ~prefix:"prof." name))
       (Registry.snapshot ()))

(* ------------------------------------------------------------------ *)
(* noc-mesh: one 8x8 mesh, open-loop Bernoulli uniform injection just
   below the E3 saturation point, then a drain. E3 saturates at 0.31
   flits/cycle/tile, ~0.10 three-flit packets/tile/cycle; 0.08 offers
   77% of that. Closer to saturation, at 0.085, p99 latency swung by 9%
   (interquartile range over median) between seeds; at 0.08 by 3-5%. *)

let mesh_rate = 0.08
let mesh_cycles = 16_000
let mesh_slo_cycles = 64

let noc_mesh { timed = time } ~seed =
  let cfg = { Mesh.default_config with Mesh.cols = 8; rows = 8 } in
  let sim = time "setup.Sim.create" Sim.create in
  let mesh : int Mesh.t =
    time "setup.Mesh.create" (fun () -> Mesh.create sim cfg)
  in
  let delivered = ref 0 and misrouted = ref 0 and digest = ref 0 in
  List.iter
    (fun c ->
      Mesh.set_receiver mesh c (fun (p : int Packet.t) ->
          if Coord.equal p.Packet.dst c then incr delivered else incr misrouted;
          digest :=
            mix
              (mix !digest (Coord.to_index ~cols:8 p.Packet.src))
              ((p.Packet.injected_at lsl 8) lor Coord.to_index ~cols:8 c)))
    (Mesh.coords mesh);
  let gen =
    time "setup.Traffic.start" (fun () ->
        Traffic.start mesh ~rng:(Rng.create ~seed) ~pattern:Traffic.Uniform
          ~rate:mesh_rate ~payload_bytes:32 ~payload:0 ())
  in
  let horizon = mesh_cycles in
  Sim.at sim horizon (fun () -> Traffic.stop_gen gen);
  let report { timed } =
    let offered = Traffic.offered gen in
    let p50, p99, within, n =
      timed "report.Mesh.latency" (fun () ->
          let lat = Mesh.latency mesh in
          ( percentile lat 50.0,
            percentile lat 99.0,
            Stats.Histogram.count_le lat mesh_slo_cycles,
            Stats.Histogram.count lat ))
    in
    {
      attempted = offered;
      ok = !delivered;
      failed = offered - !delivered;
      outcomes = offered;
      failed_outcomes = offered - !delivered;
      ops_per_kcycle =
        1000.0 *. float_of_int !delivered /. float_of_int (Sim.now sim);
      p50;
      p99;
      slo_pct = pct within n;
      instruments =
        timed "report.Registry.snapshot" count_instruments;
      digest = !digest;
      checks =
        [
          check "noc.delivered_to_dst" (!misrouted = 0)
            (Printf.sprintf "%d packets ejected away from their dst" !misrouted);
          check "noc.drained"
            (!delivered = offered && Mesh.packets_delivered mesh = offered)
            (Printf.sprintf "offered %d, delivered %d (mesh counts %d)" offered
               !delivered (Mesh.packets_delivered mesh));
          check "noc.latency_samples" (n = offered)
            (Printf.sprintf "%d latency samples for %d packets" n offered);
        ];
    }
  in
  {
    view = { Probe.empty with Probe.meshes = [ Probe.mesh_reader mesh ] };
    mode = "sim";
    domains_used = 1;
    engine = None;
    now = (fun () -> Sim.now sim);
    advance = Sim.run_until sim;
    slice = max 1 (horizon / 16);
    horizon;
    finished = (fun () -> !delivered + !misrouted >= Traffic.offered gen);
    max_cycles = horizon * 4;
    report;
  }

(* ------------------------------------------------------------------ *)
(* Shared rack plumbing. *)

(* Closed-loop outcome books per client, for the conservation check
   issued = ok + failed + in-flight, taken when load stops and again at
   the end of the run. *)
type books = {
  mutable ok_n : int;
  mutable bad_n : int;
  mutable at_stop : (int * int * int) option;  (* issued, ok, bad *)
  mutable bad_after_stop : int;
}

let new_books () = { ok_n = 0; bad_n = 0; at_stop = None; bad_after_stop = 0 }

let watch_outcomes books c =
  Shard_client.set_on_outcome c (fun ~now:_ ~req:_ ~latency ->
      match latency with
      | Some _ -> books.ok_n <- books.ok_n + 1
      | None ->
        books.bad_n <- books.bad_n + 1;
        if books.at_stop <> None then
          books.bad_after_stop <- books.bad_after_stop + 1)

let issued clients = List.fold_left (fun a c -> a + Shard_client.issued c) 0 clients

let stop_load books clients =
  List.iter Shard_client.stop clients;
  books.at_stop <- Some (issued clients, books.ok_n, books.bad_n)

let books_checks books clients ~max_in_flight =
  let issued_end = issued clients in
  match books.at_stop with
  | None -> [ check "rack.books" false "load never stopped" ]
  | Some (issued_stop, ok_stop, bad_stop) ->
    let in_flight = issued_stop - ok_stop - bad_stop in
    let settled = books.ok_n - ok_stop + (books.bad_n - bad_stop) in
    [
      check "rack.books_at_stop"
        (in_flight >= 0 && in_flight <= max_in_flight)
        (Printf.sprintf "issued %d = ok %d + failed %d + in-flight %d (max %d)"
           issued_stop ok_stop bad_stop in_flight max_in_flight);
      check "rack.in_flight_settled"
        (issued_end = issued_stop && settled = in_flight)
        (Printf.sprintf
           "%d in flight at stop, %d settled after (issued %d -> %d)" in_flight
           settled issued_stop issued_end);
    ]

(* Client-observed latency over all clients: p50, p99, and how many of
   [n] samples finished within [slo_cycles]. *)
let latency_summary ?(slo_cycles = 5_000) clients =
  let lat = Stats.Histogram.create "perfbench.latency" in
  List.iter
    (fun c -> Stats.Histogram.merge_into ~src:(Shard_client.latency c) ~dst:lat)
    clients;
  ( percentile lat 50.0,
    percentile lat 99.0,
    Stats.Histogram.count_le lat slo_cycles,
    Stats.Histogram.count lat )

(* The report fields every rack workload shares: request books, and
   throughput over the load window [window] cycles long. *)
let rack_report books clients ~window ~latency:(p50, p99) ~slo_pct
    ~instruments ~digest ~max_in_flight ~checks =
  let ok_stop = match books.at_stop with Some (_, ok, _) -> ok | None -> 0 in
  let completed =
    List.fold_left (fun a c -> a + Shard_client.completed c) 0 clients
  in
  {
    attempted = issued clients;
    ok = books.ok_n;
    failed = books.bad_after_stop + (issued clients - books.ok_n - books.bad_n);
    outcomes = books.ok_n + books.bad_n;
    failed_outcomes = books.bad_n;
    ops_per_kcycle = 1000.0 *. float_of_int ok_stop /. float_of_int window;
    p50;
    p99;
    slo_pct;
    instruments;
    digest;
    checks =
      books_checks books clients ~max_in_flight
      @ check "rack.ok_matches_client" (books.ok_n = completed)
          (Printf.sprintf "outcome hook saw %d successes, clients %d"
             books.ok_n completed)
        :: checks;
  }

let kv_checks stats =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  [
    check "kv.no_oom" (sum (fun s -> s.Kv.oom) = 0) "KV store ran out of DRAM";
    check "kv.no_corruption"
      (sum (fun s -> s.Kv.corruptions) = 0)
      "KV checksum mismatches on GET";
  ]

(* Zipf-skewed key stream: [n] requests over [keys] keys, 90/10
   GET/PUT with 64-byte values, pre-encoded. *)
let kv_stream rng ~n ~keys =
  let value = Bytes.make 64 'v' in
  Array.init n (fun _ ->
      let k = Printf.sprintf "k%05d" (Rng.zipf rng ~n:keys ~theta:0.99) in
      let req =
        if Rng.chance rng 0.1 then Kv.Proto.Put (k, value) else Kv.Proto.Get k
      in
      (k, Kv.Proto.encode_req req))

let stream_digest (streams : (string * Bytes.t) array array) =
  Array.fold_left
    (fun h s ->
      Array.fold_left
        (fun h (k, b) ->
          mix (mix h (Hashtbl.hash k)) (Hashtbl.hash (Bytes.to_string b)))
        h s)
    0 streams

let gen_of stream work_id = stream.((work_id - 1) mod Array.length stream)

let par_engine { timed = time } ~mode ~boards =
  let domains =
    match mode with
    | Par_sim.Par -> min (boards + 1) (Domain.recommended_domain_count ())
    | Par_sim.Seq -> 1
  in
  time "setup.Par_sim.create" (fun () ->
      Par_sim.create ~mode ~adaptive:true ~domains ~lookahead:Cluster.lookahead
        ~n:(boards + 1) ())

let rack_view cluster ~clients ~collector ~sched =
  let kernels = List.map Node.kernel (Cluster.nodes cluster) in
  {
    Probe.meshes =
      List.map (fun k -> Probe.mesh_reader (Apiary_core.Kernel.mesh k)) kernels;
    kernels;
    switch = Some (Cluster.switch cluster);
    clients;
    collector;
    sched;
  }

(* A rack run on [eng]: a fixed horizon, no drain condition beyond it. *)
let rack_built eng view ~horizon ~report =
  let par = Par_sim.mode eng = Par_sim.Par in
  {
    view;
    mode = (if par then "par" else "seq");
    domains_used = (if par then Par_sim.domains_used eng else 1);
    engine = Some eng;
    now = (fun () -> Par_sim.now eng);
    advance = Par_sim.run_until eng;
    slice = max 1 (horizon / 16);
    horizon;
    finished = (fun () -> true);
    max_cycles = horizon;
    report;
  }

(* ------------------------------------------------------------------ *)
(* rack-kv: 8 boards, one KV replica and one closed-loop By_key client
   per board; obs off, no faults. *)

let kv_boards = 8
let kv_concurrency = 8
let kv_load_start = 3_000
let kv_stop = 300_000
let kv_timeout = 20_000

let rack_kv ({ timed = time } as t) ~streams ~digest ~mode =
  let eng = par_engine t ~mode ~boards:kv_boards in
  let sim = Par_sim.sim eng 0 in
  let cluster =
    time "setup.Cluster.create" (fun () ->
        Cluster.create ~engine:eng sim ~boards:kv_boards
          ~client_ports:(kv_boards + 1))
  in
  let stats =
    List.init kv_boards (fun b ->
        time "setup.Cluster.install" (fun () ->
            let beh, st = Kv.behavior () in
            ignore (Cluster.install cluster ~board:b ~service:"kv" beh);
            st))
  in
  let clients =
    List.init kv_boards (fun c ->
        time "setup.Shard_client.create" (fun () ->
            Shard_client.create cluster ~timeout:kv_timeout ~service:"kv"
              ~op:Kv.Proto.opcode ~route:Shard_client.By_key
              ~gen:(gen_of streams.(c))))
  in
  let books = new_books () in
  List.iter (watch_outcomes books) clients;
  Sim.at sim kv_load_start (fun () ->
      List.iter
        (fun c -> Shard_client.start c ~concurrency:kv_concurrency)
        clients);
  Sim.at sim kv_stop (fun () -> stop_load books clients);
  let horizon = kv_stop + kv_timeout + 5_000 in
  let report { timed } =
    let p50, p99, within, n =
      timed "report.Shard_client.latency" (fun () -> latency_summary clients)
    in
    rack_report books clients ~window:(kv_stop - kv_load_start)
      ~latency:(p50, p99) ~slo_pct:(pct within n)
      ~instruments:(timed "report.Registry.snapshot" count_instruments)
      ~digest
      ~max_in_flight:(kv_boards * kv_concurrency) ~checks:(kv_checks stats)
  in
  rack_built eng (rack_view cluster ~clients ~collector:None ~sched:None)
    ~horizon ~report

(* ------------------------------------------------------------------ *)
(* rack-elastic: 4 boards on the reference (Seq) schedule; the elastic
   scheduler runs an echo tenant and a KV tenant, fed by the in-band
   collector. Load steps up and back down; one board is killed and
   restored mid-run. *)

let el_boards = 4
let el_duration = 600_000
let el_stop = el_duration - 10_000
let el_timeout = 20_000

(* Closed-loop workers. [Shard_client.start] adds workers to a running
   client, so the step up adds [el_web_step] web workers to the base.
   The step down stops both clients and waits [el_pause] cycles, long
   enough for every worker to settle (answer, timeout or retry delay,
   none over [el_timeout] + 64), then starts the base workers afresh. *)
let el_web_base = 3
let el_web_step = 6
let el_kv_workers = 4
let el_pause = el_timeout + 5_000

let web_spec =
  {
    Placer.name = "web";
    cells = 20_000;
    state_bytes = 4_096;
    bitstream_bytes = 16_384;
    reservation = 1;
    max_replicas = 3;
    slo_cycles = 5_000;
    capacity_hint = 66;
  }

let kv_spec =
  {
    Placer.name = "kv";
    cells = 20_000;
    state_bytes = 65_536;
    bitstream_bytes = 16_384;
    reservation = 2;
    max_replicas = 3;
    slo_cycles = 5_000;
    capacity_hint = 200;
  }

(* The rack watchdog, built on the collector: a board whose freshest
   pushed telemetry is older than [deadline] is reported down (the
   scheduler then re-places its replicas); fresh data re-arms it. *)
let staleness_watchdog sim cluster col ~from ~until ~deadline =
  let down = Array.make (Cluster.n_boards cluster) false in
  Sim.every sim ~start:from 500 (fun () ->
      let now = Sim.now sim in
      if now < until then
        Array.iteri
          (fun b is_down ->
            let stale = Collector.staleness col ~board:b ~now > deadline in
            if stale && not is_down then begin
              down.(b) <- true;
              Cluster.report_down cluster ~board:b
            end
            else if (not stale) && is_down then down.(b) <- false)
          down)

let conservation col =
  List.init (Collector.n_boards col) (fun b ->
      let a = Collector.agent col b in
      let delivered = Collector.delivered col ~board:b in
      let lost = Agent.sent_records a - delivered in
      let detected = Collector.lost_records_detected col ~board:b in
      let ok =
        Agent.emitted a = delivered + Agent.dropped a + lost + Agent.queued a
        && lost = detected
      in
      check
        (Printf.sprintf "obs.conservation.b%d" b)
        ok
        (Printf.sprintf
           "emitted %d = delivered %d + dropped %d + lost %d + in-flight %d \
            (collector detected %d lost)"
           (Agent.emitted a) delivered (Agent.dropped a) lost (Agent.queued a)
           detected))

let rack_elastic ({ timed = time } as t) ~kv_keys ~web_bodies ~digest =
  let duration = el_duration and stop_at = el_stop in
  let period = Agent.default_period in
  let until = stop_at + (3 * period) in
  let horizon = max (until + 1_500) (stop_at + el_timeout + 5_000) in
  Registry.clear ();
  Span.reset ();
  Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
  Span.set_enabled true;
  let eng = par_engine t ~mode:Par_sim.Seq ~boards:el_boards in
  let sim = Par_sim.sim eng 0 in
  let cluster =
    time "setup.Cluster.create" (fun () ->
        Cluster.create ~engine:eng sim ~boards:el_boards ~client_ports:6)
  in
  time "setup.Cluster.register_metrics" (fun () ->
      Cluster.register_metrics cluster);
  let cfg =
    {
      Sched.default_config with
      Sched.report_period = 4_000;
      hot_load = 30;
      cold_load = 12;
      slo_window = 1_000;
      slo_min_samples = 4;
    }
  in
  let sched =
    time "setup.Sched.create" (fun () ->
        Sched.create ~config:cfg cluster ~slot_cells:(fun _ -> 60_000))
  in
  let kv_stats = ref [] in
  time "setup.Sched.add_tenant" (fun () ->
      Sched.add_tenant sched ~spec:web_spec ~behavior:(fun () ->
          Accels.echo ~service:"web" ~cost:300 ()));
  time "setup.Sched.add_tenant" (fun () ->
      Sched.add_tenant sched ~spec:kv_spec ~behavior:(fun () ->
          let beh, st = Kv.behavior ~service:"kv" () in
          kv_stats := st :: !kv_stats;
          beh));
  let web =
    time "setup.Shard_client.create" (fun () ->
        Shard_client.create cluster ~timeout:el_timeout ~service:"web"
          ~op:Accels.op_echo ~route:Shard_client.Round_robin
          ~gen:(gen_of web_bodies))
  in
  let kv =
    time "setup.Shard_client.create" (fun () ->
        Shard_client.create cluster ~timeout:el_timeout ~service:"kv"
          ~op:Kv.Proto.opcode ~route:Shard_client.By_key ~gen:(gen_of kv_keys))
  in
  let clients = [ web; kv ] in
  let col =
    time "setup.Collector.create" (fun () ->
        Collector.create ~agent_until:until cluster)
  in
  List.iter
    (fun (tenant, c) ->
      time "setup.Sched.watch_collected" (fun () ->
          Sched.watch_collected sched ~tenant col;
          Sched.watch_client_only sched ~tenant c))
    [ ("web", web); ("kv", kv) ];
  time "setup.Sched.register_metrics" (fun () -> Sched.register_metrics sched);
  time "setup.Sched.start" (fun () -> Sched.start sched);
  let books = new_books () in
  List.iter (watch_outcomes books) clients;
  (* Load: base, web stepped up through the middle third, back down. *)
  let start_base () =
    Shard_client.start web ~concurrency:el_web_base;
    Shard_client.start kv ~concurrency:el_kv_workers
  in
  let unsettled_at_restart = ref (-1) in
  Sim.at sim 3_000 start_base;
  Sim.at sim (duration / 3) (fun () ->
      Shard_client.start web ~concurrency:el_web_step);
  Sim.at sim (2 * duration / 3) (fun () ->
      List.iter Shard_client.stop clients;
      Sim.after sim el_pause (fun () ->
          unsettled_at_restart := issued clients - books.ok_n - books.bad_n;
          start_base ()));
  (* One board dies and comes back: the first board serving web. *)
  let victim = ref (-1) in
  Sim.at sim (2 * duration / 5) (fun () ->
      let b =
        match Sched.placement sched ~tenant:"web" with b :: _ -> b | [] -> 0
      in
      victim := b;
      Cluster.kill cluster ~board:b);
  Sim.at sim (3 * duration / 5) (fun () -> Cluster.restore cluster ~board:!victim);
  staleness_watchdog sim cluster col ~from:(3 * period) ~until
    ~deadline:(4 * period);
  Sim.at sim stop_at (fun () -> stop_load books clients);
  let report { timed } =
    let p50, p99, _, _ =
      timed "report.Shard_client.latency" (fun () -> latency_summary clients)
    in
    let slos = List.map (fun t -> Sched.slo sched ~tenant:t) [ "web"; "kv" ] in
    let good = List.fold_left (fun a s -> a + Slo.good_total s) 0 slos in
    let bad = List.fold_left (fun a s -> a + Slo.bad_total s) 0 slos in
    let exports =
      List.map
        (fun (name, f) -> timed name f)
        [
          ( "report.Collector.conservation_json_string",
            fun () -> Collector.conservation_json_string col );
          ( "report.Collector.exemplars_json_string",
            fun () -> Collector.exemplars_json_string col );
          ( "report.Collector.trace_json_string",
            fun () -> Collector.trace_json_string col );
          ("report.Sched.decisions_json", fun () -> Sched.decisions_json sched);
          ( "report.Sched.slo_report_json",
            fun () -> Sched.slo_report_json sched );
        ]
    in
    rack_report books clients ~window:(stop_at - 3_000) ~latency:(p50, p99)
        ~slo_pct:(pct good (good + bad))
        ~instruments:(timed "report.Registry.snapshot" count_instruments)
        ~digest ~max_in_flight:(el_web_base + el_kv_workers)
        ~checks:
          (kv_checks !kv_stats @ conservation col
          @ [
              check "obs.exports_nonempty"
                (List.for_all (fun s -> String.length s > 2) exports)
                "an export call returned an empty document";
              check "sched.victim_killed" (!victim >= 0) "the kill drill never ran";
              check "rack.settled_before_restart" (!unsettled_at_restart = 0)
                (Printf.sprintf
                   "%d requests still in flight when the base load restarted"
                   !unsettled_at_restart);
            ])
  in
  rack_built eng
    (rack_view cluster ~clients ~collector:(Some col) ~sched:(Some sched))
    ~horizon ~report

(* ------------------------------------------------------------------ *)

(* A workload's seed-derived inputs, made before set-up starts: the rack
   key streams (one per client) and their fingerprint. noc-mesh has no
   streams; its injections are drawn from [Rng.create ~seed] as the
   mesh runs. *)
type inputs = {
  seed : int;
  streams : (string * Bytes.t) array array;
  digest : int;
}

let inputs ~workload ~seed =
  let rng = Rng.create ~seed in
  let streams =
    match workload with
    | "noc-mesh" -> [||]
    | "rack-kv" ->
      Array.init kv_boards (fun _ -> kv_stream (Rng.split rng) ~n:4096 ~keys:1024)
    | "rack-elastic" ->
      let kv_keys = kv_stream (Rng.split rng) ~n:4096 ~keys:1024 in
      let web_bodies = Array.init 64 (fun _ -> ("", Rng.bytes rng 64)) in
      [| kv_keys; web_bodies |]
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  { seed; streams; digest = stream_digest streams }

let build timer ~workload inp ~mode =
  match workload with
  | "noc-mesh" -> noc_mesh timer ~seed:inp.seed
  | "rack-kv" -> rack_kv timer ~streams:inp.streams ~digest:inp.digest ~mode
  | "rack-elastic" ->
    rack_elastic timer ~kv_keys:inp.streams.(0) ~web_bodies:inp.streams.(1)
      ~digest:inp.digest
  | w -> invalid_arg ("unknown workload " ^ w)
