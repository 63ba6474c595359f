(* perfbench episode runner:

     main.exe --workload <noc-mesh|rack-kv|rack-elastic> --seed <n>
              [--mode seq|par] [--traced]
              [--trace-out <chrome-trace.json>]

   Runs one episode and prints its result as one JSON line. Exit code 0
   means the episode ran; whether its output checks passed is in the
   result ("checks"). Driven by perfbench/run.py. *)

let () =
  let workload = ref "" and seed = ref 1 in
  let mode = ref "seq" and traced = ref false and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " noc-mesh | rack-kv | rack-elastic");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--mode", Arg.Set_string mode, " rack-kv engine mode: seq | par");
      ("--traced", Arg.Set traced, " traced run: spans, ticker timers, GC time");
      ("--trace-out", Arg.Set_string trace_out, " write the span tree here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N";
  if not (List.mem !workload Perfbench.Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let mode =
    match !mode with
    | "seq" -> Apiary_engine.Par_sim.Seq
    | "par" -> Apiary_engine.Par_sim.Par
    | m ->
      prerr_endline ("unknown mode: " ^ m);
      exit 2
  in
  let json, _, tr =
    Perfbench.Episode.run
      {
        Perfbench.Episode.workload = !workload;
        seed = !seed;
        mode;
        traced = !traced;
      }
  in
  if !trace_out <> "" then begin
    let oc = open_out !trace_out in
    output_string oc (Perfbench.Tracer.chrome_json tr);
    close_out oc
  end;
  print_endline (Perfbench.Json.to_string json)
