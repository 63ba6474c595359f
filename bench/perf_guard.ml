(* CI perf-regression guard.

     perf_guard.exe BENCH_baseline.json BENCH_perf.json

   Rows are keyed by (id, variant): the variant names the workload size
   and flags the row ran with ("small"/"full", plus "+obs"), so the
   same id run two ways is two rows. Fails (exit 1) when any row present
   in both files has a [cycles_per_s] below [0.7 * APIARY_PERF_FACTOR]
   of its baseline. APIARY_PERF_FACTOR (default 1.0) discounts the
   baseline for slower machines — CI runners set it well below 1 so
   only real regressions, not hardware variance, trip the guard. A
   baseline id absent from the current run is skipped; an id present
   under another variant fails, naming both keys, since the two rows
   are different workloads. Rows present in both must also have
   simulated the same [sim_cycles]: a mismatch means a different
   workload the variant does not name, so it fails too. Rows with
   [sim_cycles = 0] on both sides (sub-second experiments whose rate is
   pure noise) are skipped.

   Two machine-independent checks follow, both deterministic functions
   of the workload. [active_ticks] (ticker invocations actually
   executed) may not exceed the baseline by more than 10% + 1000
   calls: a regression there means tickers stopped parking even if the
   wall-clock guard still passes on a fast runner. [alloc_words] (words
   the experiment allocated) may not exceed the baseline by more than
   10% when both files ran on one domain ([domains_used = 1]; a Par run
   allocates per-window sync state that depends on the domain count).
   Each is skipped when either side lacks the field (old baselines).

   The parser handles exactly the format bench_util.write_perf_json
   emits — one record per line — not general JSON; both inputs come
   from our own harness. *)

type rec_t = {
  id : string;
  variant : string;
  sim_cycles : int;
  cycles_per_s : float;
  active_ticks : int option;
  alloc_words : float option;
}

let field_str line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  match String.index_opt line '{' with
  | None -> None
  | Some _ -> (
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then
        let start = i + plen in
        String.index_from_opt line start '"'
        |> Option.map (fun e -> String.sub line start (e - start))
      else find (i + 1)
    in
    find 0)

let field_num line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      let j = ref start in
      while
        !j < String.length line
        && (match line.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub line start (!j - start))
    end
    else find (i + 1)
  in
  find 0

(* [(domains_used, rows)]: the file-level domain count (absent in old
   baselines) and one record per experiment line. *)
let parse path =
  let ic = open_in path in
  let domains = ref None and out = ref [] in
  (try
     while true do
       let line = input_line ic in
       match field_str line "id" with
       | None ->
         if !domains = None then
           domains := Option.map int_of_float (field_num line "domains_used")
       | Some id ->
         let variant = Option.value ~default:"?" (field_str line "variant") in
         let sim_cycles =
           int_of_float (Option.value ~default:0.0 (field_num line "sim_cycles"))
         in
         let cycles_per_s =
           Option.value ~default:0.0 (field_num line "cycles_per_s")
         in
         let active_ticks =
           Option.map int_of_float (field_num line "active_ticks")
         in
         let alloc_words = field_num line "alloc_words" in
         out :=
           { id; variant; sim_cycles; cycles_per_s; active_ticks; alloc_words }
           :: !out
     done
   with End_of_file -> ());
  close_in ic;
  (!domains, List.rev !out)

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline "usage: perf_guard.exe BENCH_baseline.json BENCH_perf.json";
      exit 2
  in
  let factor =
    match Sys.getenv_opt "APIARY_PERF_FACTOR" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let threshold = 0.7 *. factor in
  let b_domains, baseline = parse baseline_path in
  let c_domains, current = parse current_path in
  let one_domain = b_domains = Some 1 && c_domains = Some 1 in
  let failures = ref 0 in
  List.iter
    (fun b ->
      let same_id = List.filter (fun c -> c.id = b.id) current in
      match List.find_opt (fun c -> c.variant = b.variant) same_id with
      | None when same_id = [] ->
        Printf.printf "perf-guard: %-6s not in current run, skipped\n" b.id
      | None ->
        Printf.printf
          "perf-guard: %-6s VARIANT MISMATCH  baseline (%s, %s), current %s: \
           not the same workload (re-record the baseline with these flags)\n"
          b.id b.id b.variant
          (String.concat ", "
             (List.map (fun c -> Printf.sprintf "(%s, %s)" c.id c.variant) same_id));
        incr failures
      | Some c when c.sim_cycles <> b.sim_cycles ->
        Printf.printf
          "perf-guard: %-6s SIZE MISMATCH  baseline %d sim cycles, current %d: \
           not the same workload (re-record the baseline at this size)\n"
          b.id b.sim_cycles c.sim_cycles;
        incr failures
      | Some _ when b.sim_cycles = 0 ->
        Printf.printf "perf-guard: %-6s no simulated cycles, skipped\n" b.id
      | Some c ->
        let floor = threshold *. b.cycles_per_s in
        let verdict = if c.cycles_per_s >= floor then "ok" else "REGRESSION" in
        Printf.printf
          "perf-guard: %-6s %s  baseline %.2e cyc/s, current %.2e, floor %.2e (x%.2f)\n"
          b.id verdict b.cycles_per_s c.cycles_per_s floor threshold;
        if c.cycles_per_s < floor then incr failures;
        (* Deterministic activity guard: same simulated span must not
           execute meaningfully more ticker calls than the baseline. *)
        (match (b.active_ticks, c.active_ticks) with
        | Some ba, Some ca ->
          let cap = ba + (ba / 10) + 1000 in
          if ca > cap then begin
            Printf.printf
              "perf-guard: %-6s ACTIVITY REGRESSION  baseline %d active ticks, \
               current %d (cap %d)\n"
              b.id ba ca cap;
            incr failures
          end
          else
            Printf.printf
              "perf-guard: %-6s activity ok  baseline %d active ticks, current \
               %d (cap %d)\n"
              b.id ba ca cap
        | _ -> ());
        (* Deterministic allocation guard, single-domain runs only. *)
        (match (b.alloc_words, c.alloc_words) with
        | Some ba, Some ca when one_domain ->
          let cap = ba *. 1.1 in
          let verdict = if ca > cap then "ALLOC REGRESSION" else "alloc ok" in
          Printf.printf
            "perf-guard: %-6s %s  baseline %.0f words, current %.0f (cap %.0f)\n"
            b.id verdict ba ca cap;
          if ca > cap then incr failures
        | _ -> ()))
    baseline;
  if !failures > 0 then begin
    Printf.printf
      "perf-guard: %d check(s) failed (rate floor %.0f%% below baseline, or a \
       variant, size, activity or allocation check)\n"
      !failures
      ((1.0 -. threshold) *. 100.0);
    exit 1
  end
  else print_endline "perf-guard: no regressions"
