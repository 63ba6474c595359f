(* One benchmark episode: set a workload up, run it, report — in a
   process of its own, so process-wide engine counters and the GC heap
   belong to this episode alone. The result is one JSON object.

   Phases (the seed-derived inputs are made before the first, and are
   in none of them):
   - setup: every constructor/install call, each timed (span
     [setup.<call>]);
   - run: [run_until] in fixed simulated-cycle slices (span [run.slice],
     carrying the slice's layer-counter deltas when traced), then the
     engine shutdown;
   - report: every export call, each timed (span [report.<call>]). *)

module Par_sim = Apiary_engine.Par_sim

type opts = {
  workload : string;
  seed : int;
  mode : Par_sim.mode;  (** rack-kv's engine mode; the others are fixed *)
  traced : bool;
}

(* Which per-layer time total a timed call is charged to. *)
let layer_of name =
  let starts prefix = String.starts_with ~prefix name in
  if starts "setup.Cluster.install" then Some "cluster.install_s"
  else if starts "setup.Cluster." || starts "setup.Shard_client." then
    Some "cluster.setup_s"
  else if starts "setup.Sched." then Some "sched.setup_s"
  else if starts "setup.Collector." then Some "obs.setup_s"
  else if starts "report." then Some "obs.report_s"
  else None

let run o =
  let tr = Tracer.create ~traced:o.traced in
  let timer =
    {
      Workloads.timed =
        (fun name f -> Tracer.time tr ?layer:(layer_of name) name f);
    }
  in
  let phase_gc () = (Probe.gc_now (), Tracer.gc_s tr) in
  let inp = Workloads.inputs ~workload:o.workload ~seed:o.seed in
  let root = Tracer.enter tr ("workload." ^ o.workload) in
  (* setup *)
  let g0 = phase_gc () in
  let t0 = Tracer.now () in
  let sp = Tracer.enter tr "setup" in
  let b =
    Workloads.build timer ~workload:o.workload inp ~mode:o.mode
  in
  Tracer.leave tr sp;
  let t1 = Tracer.now () in
  let g1 = phase_gc () in
  (* run *)
  let sp = Tracer.enter tr "run" in
  let engine_s = ref 0.0 in
  let rec loop () =
    let now = b.Workloads.now () in
    if now < b.max_cycles && not (now >= b.horizon && b.finished ()) then begin
      let target = min b.max_cycles (now + b.slice) in
      let before = if o.traced then Probe.counters b.view else [] in
      let s = Tracer.enter tr "run.slice" in
      let a = Tracer.now () in
      b.advance target;
      engine_s := !engine_s +. (Tracer.now () -. a);
      if o.traced then begin
        let deltas = Probe.diff (Probe.counters b.view) before in
        Tracer.leave tr s
          ~args:
            (("from", Json.Int now) :: ("to", Json.Int target)
            :: List.filter_map
                 (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
                 deltas);
        Tracer.poll_gc tr
      end;
      loop ()
    end
  in
  loop ();
  let cycles = b.now () in
  let counters = Probe.counters b.view in
  let stall =
    match b.engine with Some e -> Par_sim.barrier_stall_s e | None -> 0.0
  in
  Tracer.time tr "run.Par_sim.shutdown" (fun () ->
      Option.iter Par_sim.shutdown b.engine);
  Tracer.leave tr sp;
  let t2 = Tracer.now () in
  let g2 = phase_gc () in
  (* report *)
  let sp = Tracer.enter tr "report" in
  let rep = b.report timer in
  Tracer.leave tr sp;
  let t3 = Tracer.now () in
  let g3 = phase_gc () in
  Tracer.leave tr root;
  let setup_s = t1 -. t0 and run_s = t2 -. t1 and report_s = t3 -. t2 in
  let router_s, nic_s, monitor_s = Probe.profile_s () in
  let count k = List.assoc k counters in
  let windows = count "engine.windows" in
  let layers_s =
    [
      ("engine.run_s", !engine_s);
      ("engine.barrier_stall_s", stall);
      ( "engine.ns_per_active_tick",
        1e9 *. !engine_s /. float_of_int (max 1 (count "engine.active_ticks")) );
      ("noc.router_s", router_s);
      ("noc.nic_s", nic_s);
      ("core.monitor_s", monitor_s);
      ("cluster.setup_s", Tracer.layer_s tr "cluster.setup_s");
      ("cluster.install_s", Tracer.layer_s tr "cluster.install_s");
      ("sched.setup_s", Tracer.layer_s tr "sched.setup_s");
      ("obs.setup_s", Tracer.layer_s tr "obs.setup_s");
      ("obs.report_s", Tracer.layer_s tr "obs.report_s");
      (* The ticker timers and the barrier stall are disjoint slices of
         the run phase; what they leave over stays visible here. GC time
         overlaps all of them and is reported beside, not subtracted. *)
      ("unattributed_s", run_s -. router_s -. nic_s -. monitor_s -. stall);
    ]
  in
  let runtime =
    let phase name (ga, sa) (gb, sb) =
      Probe.gc_delta ~phase:name ga gb
      @ [ ("runtime." ^ name ^ ".gc_s", Json.Float (sb -. sa)) ]
    in
    phase "setup" g0 g1 @ phase "run" g1 g2 @ phase "report" g2 g3
  in
  let top_heap = (fst g3).Probe.top in
  let wall_s = setup_s +. run_s +. report_s in
  let json =
    Json.Obj
      [
        ( "identity",
          Json.Obj
            [
              ("workload", Json.Str o.workload);
              ("seed", Json.Int o.seed);
              ("cycles", Json.Int cycles);
              ("mode", Json.Str b.mode);
              ("domains_used", Json.Int b.domains_used);
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("traced", Json.Bool o.traced);
            ] );
        ( "sim",
          Json.Obj
            [
              ("attempted", Json.Int rep.Workloads.attempted);
              ("ok", Json.Int rep.ok);
              ("failed", Json.Int rep.failed);
              ("outcomes", Json.Int rep.outcomes);
              ("failed_outcomes", Json.Int rep.failed_outcomes);
              ("sim_ops_per_kcycle", Json.Float rep.ops_per_kcycle);
              ("sim_p50_cycles", Json.Float rep.p50);
              ("sim_p99_cycles", Json.Float rep.p99);
              ( "failed_frac",
                Json.Float
                  (float_of_int rep.failed_outcomes
                  /. float_of_int (max 1 rep.outcomes)) );
              ("slo_attainment_pct", Json.Float rep.slo_pct);
              ("input_digest", Json.Int rep.digest);
            ] );
        ( "host",
          Json.floats
            [
              ("setup_s", setup_s);
              ("run_s", run_s);
              ("report_s", report_s);
              ("wall_s", wall_s);
              ("cycles_per_s", float_of_int cycles /. run_s);
              ( "peak_heap_mb",
                float_of_int (top_heap * (Sys.word_size / 8)) /. 1048576.0 );
            ] );
        ( "counters",
          Json.ints
            (counters
            @ [
                ("engine.domains_used", b.domains_used);
                ("obs.instruments", rep.Workloads.instruments);
                ( "engine.win_mean_cycles",
                  if windows = 0 then 0 else cycles / windows );
              ]) );
        ("layers_s", Json.floats layers_s);
        ("runtime", Json.Obj runtime);
        ( "checks",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("name", Json.Str c.Workloads.c_name);
                     ("ok", Json.Bool c.c_ok);
                     ("detail", Json.Str c.c_detail);
                   ])
               rep.checks) );
        ( "spans",
          Json.List
            (List.map
               (fun (name, (n, total, self)) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("count", Json.Int n);
                     ("total_s", Json.Float total);
                     ("self_s", Json.Float self);
                   ])
               (Tracer.self_times tr)) );
        ("gc_events_lost", Json.Int (Tracer.gc_events_lost tr));
      ]
  in
  (json, rep, tr)
