(* The benchmark's own tests, run on the same full-length episodes
   that run.py measures, each in a process of its own:
   - bypass predictions: layers a workload does not use read zero, and
     the layer each workload exists to exercise does real work;
   - determinism: same seed, same simulated metrics and counters; a
     different seed changes the input stream; rack-kv's Par engine
     matches its Seq reference; a traced run matches an untraced one;
   - every output check of every episode passes. *)

module Json = Perfbench.Json

let exe = Filename.concat (Filename.concat ".." "src") "main.exe"

let read_all ic =
  let b = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

let run_episode ~workload ~seed ~mode ~traced =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"APIARY_" kv))
         (Array.to_list (Unix.environment ()))
      @ if traced then
          [ "APIARY_PROF=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ Sys.getcwd () ]
        else [])
  in
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed; "--mode"; mode ]
    @ if traced then [ "--traced" ] else []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list args) env Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = read_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "episode %s seed %d exited abnormally" workload seed);
  Json.of_string (String.trim out)

let runs = Hashtbl.create 16

(* Memoized: several tests read the same episode. *)
let episode ?(mode = "seq") ?(traced = false) workload seed =
  let key = (workload, seed, mode, traced) in
  match Hashtbl.find_opt runs key with
  | Some r -> r
  | None ->
    let r = run_episode ~workload ~seed ~mode ~traced in
    Hashtbl.replace runs key r;
    r

let counter r k = Json.to_int (Json.member k (Json.member "counters" r))
let part r k = Json.member k r

let zero workload keys () =
  let r = episode workload 1 in
  List.iter
    (fun k -> Alcotest.(check int) (workload ^ " " ^ k) 0 (counter r k))
    keys

let busy workload keys () =
  let r = episode workload 1 in
  List.iter
    (fun k ->
      if counter r k <= 0 then
        Alcotest.failf "%s: %s should be non-zero" workload k)
    keys

let checks_pass workload () =
  let r = episode workload 1 in
  match part r "checks" with
  | Json.List cs ->
    if cs = [] then Alcotest.fail "no output checks ran";
    List.iter
      (fun c ->
        if Json.member "ok" c <> Json.Bool true then
          Alcotest.failf "%s: check %s failed: %s" workload
            (Json.to_string (Json.member "name" c))
            (Json.to_string (Json.member "detail" c)))
      cs
  | _ -> Alcotest.fail "checks is not a list"

let same what a b =
  if a <> b then
    Alcotest.failf "%s differ:\n%s\n%s" what (Json.to_string a) (Json.to_string b)

let deterministic workload () =
  let a = episode workload 1 in
  let b = run_episode ~workload ~seed:1 ~mode:"seq" ~traced:false in
  same "sim" (part a "sim") (part b "sim");
  same "counters" (part a "counters") (part b "counters")

let seed_changes_inputs workload () =
  let a = episode workload 1 and b = episode workload 2 in
  let digest r = Json.member "input_digest" (part r "sim") in
  if digest a = digest b then
    Alcotest.failf "%s: seeds 1 and 2 gave the same input stream" workload;
  if part a "counters" = part b "counters" then
    Alcotest.failf "%s: seeds 1 and 2 gave identical layer counters" workload

(* Counters that legitimately depend on the engine mode. *)
let engine_independent r =
  match part r "counters" with
  | Json.Obj kvs ->
    Json.Obj (List.filter (fun (k, _) -> k <> "engine.domains_used") kvs)
  | v -> v

let par_matches_seq () =
  let par = episode ~mode:"par" "rack-kv" 1 in
  let seq = episode ~mode:"seq" "rack-kv" 1 in
  same "sim" (part par "sim") (part seq "sim");
  same "counters" (engine_independent par) (engine_independent seq)

let traced_matches_untraced workload () =
  let plain = episode workload 1 and traced = episode ~traced:true workload 1 in
  same "sim" (part plain "sim") (part traced "sim");
  same "counters" (part plain "counters") (part traced "counters");
  let router_s =
    Json.to_float (Json.member "noc.router_s" (part traced "layers_s"))
  in
  if router_s <= 0.0 then Alcotest.fail "traced run recorded no noc.router time";
  let names =
    match part traced "spans" with
    | Json.List ss -> List.map (fun s -> Json.member "name" s) ss
    | _ -> []
  in
  List.iter
    (fun n ->
      if not (List.mem (Json.Str n) names) then Alcotest.failf "no %s span" n)
    [ "workload." ^ workload; "setup"; "run"; "run.slice"; "report" ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ( "bypass",
        [
          tc "noc-mesh: no switch frames, spans or decisions"
            (zero "noc-mesh"
               [ "net.frames_forwarded"; "net.frames_flooded"; "net.frames_dropped";
                 "obs.spans_recorded"; "obs.agent_emitted"; "sched.decisions";
                 "cluster.issued" ]);
          tc "rack-kv: no spans, agent records or decisions"
            (zero "rack-kv"
               [ "obs.spans_recorded"; "obs.spans_sampled"; "obs.agent_emitted";
                 "obs.collector_rx_frames"; "sched.decisions" ]);
          tc "noc-mesh: routers work"
            (busy "noc-mesh" [ "noc.packets_delivered"; "noc.router_busy_cycles" ]);
          tc "rack-kv: switch, cluster and monitors work"
            (busy "rack-kv"
               [ "net.frames_forwarded"; "cluster.ok"; "core.msgs"; "engine.windows" ]);
          tc "rack-elastic: scheduler and telemetry work"
            (busy "rack-elastic"
               [ "sched.decisions"; "sched.placements"; "sched.replaced";
                 "obs.spans_recorded"; "obs.agent_emitted"; "obs.collector_rx_frames" ]);
        ] );
      ( "checks",
        List.map (fun w -> tc w (checks_pass w)) Perfbench.Workloads.names );
      ( "determinism",
        [
          tc "noc-mesh: same seed, same run" (deterministic "noc-mesh");
          tc "rack-elastic: same seed, same run" (deterministic "rack-elastic");
          tc "noc-mesh: seed changes injections" (seed_changes_inputs "noc-mesh");
          tc "rack-kv: seed changes keys" (seed_changes_inputs "rack-kv");
          tc "rack-kv: Par equals Seq" par_matches_seq;
          tc "noc-mesh: traced equals untraced"
            (traced_matches_untraced "noc-mesh");
          tc "rack-elastic: traced equals untraced"
            (traced_matches_untraced "rack-elastic");
        ] );
    ]
