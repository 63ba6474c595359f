(* Shared helpers for the experiment harness: headers, table rendering,
   cycle/time conversions and common simulation setups. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Profile = Apiary_engine.Profile
module Stats = Apiary_engine.Stats
module Cluster = Apiary_cluster.Cluster
module Series = Apiary_obs.Series

let cycle_ns = 4.0 (* 250 MHz fabric *)

let us_of_cycles c = float_of_int c *. cycle_ns /. 1000.0

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let subhead s = Printf.printf "\n-- %s --\n" s

(* Render a table: column titles + rows of strings, auto-width. *)
let table cols rows =
  let all = cols :: rows in
  let ncols = List.length cols in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      row;
    print_newline ()
  in
  print_row cols;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let i = string_of_int
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun idx c ->
      if idx > 0 && (len - idx) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let p50 h = Stats.Histogram.percentile h 50.0
let p99 h = Stats.Histogram.percentile h 99.0

let throughput_per_sec ~count ~cycles =
  float_of_int count /. (float_of_int cycles *. cycle_ns *. 1e-9)

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps.

   Each simulation instance is fully self-contained (per-sim RNGs, stats
   and trace buffers), so independent sweep points can run on separate
   domains. The function must not print — callers collect results and
   render tables on the main domain, which keeps output ordering
   deterministic and identical to the sequential run. *)

let domain_count () =
  Apiary_obs.Env.int "APIARY_DOMAINS"
    ~default:(max 1 (Domain.recommended_domain_count () - 1))

(* APIARY_PAR selects how the conservative parallel-in-time engine
   executes: [boards] runs every rack one-board-per-domain (lookahead =
   the uplink's 126 cycles), [mesh] stripes E3's standalone meshes by
   columns (lookahead = the 1-cycle router link). Anything else — or
   unset — runs the same partitioned racks under the engine's Seq mode,
   the reference schedule. *)
let par_mode () =
  match Sys.getenv_opt "APIARY_PAR" with
  | Some "boards" -> `Boards
  | Some "mesh" -> `Mesh
  | _ -> `Off

(* OS domains the process's parallel engines actually occupied (1 when
   everything ran sequentially) — the honest context for speed-up
   claims in BENCH_perf.json. *)
let domains_used = ref 1

let note_engine eng =
  if Par_sim.mode eng = Par_sim.Par then
    domains_used := max !domains_used (Par_sim.domains_used eng)

(* Build a rack, let [body] populate it (returning the result
   extractor), run for [duration], extract. Every rack is partitioned
   one board per member behind the ToR switch's member 0; APIARY_PAR
   picks only the execution mode, and Par is byte-identical to Seq.
   APIARY_DOMAINS caps a Par run's domains below the member count; the
   engine's busiest-first work stealing then keeps the smaller pool
   fed. Unset, every member gets its own domain. *)
let with_rack ~boards ~clients ~duration body =
  let eng =
    match par_mode () with
    | `Boards ->
      let domains = Apiary_obs.Env.int "APIARY_DOMAINS" ~default:(boards + 1) in
      Cluster.make_engine ~mode:Par_sim.Par ~domains ~boards ()
    | `Mesh | `Off -> Cluster.make_engine ~boards ()
  in
  note_engine eng;
  let sim = Par_sim.sim eng 0 in
  let cluster =
    Cluster.create ~engine:eng sim ~boards ~client_ports:(clients + 1)
  in
  let finish = body sim cluster in
  Par_sim.run_until eng duration;
  Par_sim.shutdown eng;
  finish ()

(* Event counts per [interval]-cycle window over a [duration]-cycle run:
   an [Obs.Series] with a ring long enough that no window is evicted.
   Record one event with [Series.observe series ~now name 1]. *)
let count_series ~interval ~duration =
  Series.create ~capacity:((duration / interval) + 1) ~window:interval ()

(* [(window start, events)] for metric [name], oldest first, after
   closing every window the run touched. Windows with no event are left
   out, so averages over a span skip them. *)
let window_counts series name ~duration =
  Series.close_upto series (duration + Series.window series);
  List.filter_map
    (fun (r : Series.rollup) ->
      if r.Series.r_count = 0 then None
      else Some (r.Series.r_start, float_of_int r.Series.r_count))
    (Series.rollups series name)

let parallel_map f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let k = min n (domain_count ()) in
    if k <= 1 then Array.to_list (Array.map f items)
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (f items.(i));
            go ()
          end
        in
        go ()
      in
      let domains = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains;
      Array.to_list
        (Array.map
           (function Some r -> r | None -> failwith "parallel_map: missing result")
           results)
    end
  end

(* ------------------------------------------------------------------ *)
(* Perf self-measurement (--perf). *)

let perf_enabled = ref false

(* Telemetry capture (--obs): E12 attaches the span recorder and the
   metrics registry and writes Chrome-trace/metrics JSON next to
   BENCH_perf.json; E13 adds critical-path attribution. *)
let obs_enabled = ref false

type perf_record = {
  pr_id : string;
  pr_variant : string;  (* workload size and flags; see [variant] *)
  pr_wall_s : float;
  pr_cycles : int;
  pr_skipped : int;  (* cycles fast-forwarded through quiescence *)
  pr_active_ticks : int;  (* ticker invocations actually executed *)
  pr_skipped_ticks : int;  (* ticker invocations elided while parked *)
  pr_stall_s : float;  (* barrier stall (parallel engine only) *)
  pr_windows : int;  (* adaptive sync windows executed during the run *)
  pr_win_min : int;  (* narrowest/widest window width so far, process-wide *)
  pr_win_max : int;
  pr_alloc_words : float;  (* words allocated while it ran *)
}

let perf_records : perf_record list ref = ref []

(* Which workload an experiment id ran: "small" when its
   APIARY_<ID>_SMALL knob shrank it, else "full", plus "+obs" under
   --obs. perf_guard compares rows only when id and variant both match,
   so the --obs e12 drill is never read against a plain e12 sweep. *)
let variant id =
  let small =
    Sys.getenv_opt ("APIARY_" ^ String.uppercase_ascii id ^ "_SMALL") <> None
  in
  (if small then "small" else "full") ^ if !obs_enabled then "+obs" else ""

(* Wall-clock an experiment and record simulated cycles advanced across
   all sims (including parallel domains) while it ran. *)
let timed id f () =
  if not !perf_enabled then f ()
  else begin
    let cycles0 = Sim.total_cycles () in
    let skipped0 = Sim.total_skipped () in
    let active_t0 = Sim.total_active_ticks () in
    let skipped_t0 = Sim.total_skipped_ticks () in
    let stall0 = Par_sim.total_barrier_stall_s () in
    let windows0, _, _ = Par_sim.total_window_stats () in
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    (* Minor plus direct-major allocation: promotion moves words between
       the two counters, so it is taken out once. Joined domains' counts
       fold in, so the total does not depend on who ran a sweep point. *)
    let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
    (* Window count is differenced per experiment; the min/max widths
       are process-wide high/low watermarks (windows from earlier
       experiments included), which is all the atomic accounting can
       offer without per-instance plumbing. *)
    let windows1, win_min, win_max = Par_sim.total_window_stats () in
    perf_records :=
      {
        pr_id = id;
        pr_variant = variant id;
        pr_wall_s = dt;
        pr_cycles = Sim.total_cycles () - cycles0;
        pr_skipped = Sim.total_skipped () - skipped0;
        pr_active_ticks = Sim.total_active_ticks () - active_t0;
        pr_skipped_ticks = Sim.total_skipped_ticks () - skipped_t0;
        pr_stall_s = Par_sim.total_barrier_stall_s () -. stall0;
        pr_windows = windows1 - windows0;
        pr_win_min = win_min;
        pr_win_max = win_max;
        pr_alloc_words = words gc1 -. words gc0;
      }
      :: !perf_records
  end

let write_perf_json path =
  let oc = open_out path in
  let records = List.rev !perf_records in
  (* Honest context for the run: how many domains its engines actually
     occupied (speedup claims are meaningless without it) and which
     engine mode was selected. perf_guard keys on per-experiment
     "id"/"variant" lines and skips these. The major-heap high-water
     mark is one process-wide figure, so it is written once here, not
     per row. *)
  Printf.fprintf oc
    "{\n  \"domains_used\": %d,\n  \"par_mode\": \"%s\",\n  \"top_heap_mb\": %.1f,\n"
    !domains_used
    (match par_mode () with
    | `Boards -> "boards"
    | `Mesh -> "mesh"
    | `Off -> "off")
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
     /. 1048576.0);
  output_string oc "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"id\": \"%s\", \"variant\": \"%s\", \"wall_s\": %.3f, \"sim_cycles\": %d, \"cycles_per_s\": %.0f, \"skipped_cycles\": %d, \"active_ticks\": %d, \"skipped_ticks\": %d, \"alloc_words\": %.0f%s}%s\n"
        r.pr_id r.pr_variant r.pr_wall_s r.pr_cycles
        (if r.pr_wall_s > 0.0 then float_of_int r.pr_cycles /. r.pr_wall_s
         else 0.0)
        r.pr_skipped r.pr_active_ticks r.pr_skipped_ticks r.pr_alloc_words
        ((if r.pr_stall_s > 0.0 then
            Printf.sprintf ", \"barrier_stall_s\": %.3f" r.pr_stall_s
          else "")
        ^
        if r.pr_windows > 0 then
          Printf.sprintf
            ", \"windows\": %d, \"win_min\": %d, \"win_max\": %d"
            r.pr_windows r.pr_win_min r.pr_win_max
        else "")
        (if i = List.length records - 1 then "" else ","))
    records;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nperf: wrote %s\n" path

(* Hot-path profile (APIARY_PROF=1): cumulative wall time and invocation
   count per ticker name, aggregated across every simulator in the
   process, in the profiler's own order (descending wall time). The
   registry's built-in [obs.prof] sampler publishes the same rows as
   [prof.*] gauges for --obs metrics dumps. *)
let print_profile () =
  match if Profile.enabled () then Profile.snapshot () else [] with
  | [] -> ()
  | rows ->
    subhead "ticker profile (APIARY_PROF)";
    table
      [ "ticker"; "calls"; "skipped"; "seconds"; "ns/call" ]
      (List.map
         (fun (name, calls, skipped, seconds) ->
           [
             name;
             commas calls;
             commas skipped;
             Printf.sprintf "%.3f" seconds;
             f1 (seconds *. 1e9 /. float_of_int (max 1 calls));
           ])
         rows)
