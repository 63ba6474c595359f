type ph = Dur | Mark

type event = {
  seq : int;
  name : string;
  cat : string;
  corr : int;
  board : int;
  track : int;
  ts : int;
  mutable dur : int;
  ph : ph;
  mutable args : (string * string) list;
}

type id = int
(* Positive: 1-based index into the store; 0 = null; negative: a key in
   the pending side-table (a head-sampled-away open span that may still
   be promoted by a tail rule at finish). A reset bumps [epoch], so a
   stale id from before the reset cannot close an unrelated span. *)

let null = 0

(* Process-global recorder. The flag is the only thing hot paths read;
   everything else is touched under the lock, and only when enabled. *)
let flag = ref false
let lock = Mutex.create ()
let cap = ref 1_048_576
let store : event array ref = ref [||]
let n = ref 0
let n_dropped = ref 0
let n_sampled = ref 0
let epoch = ref 0

(* Deterministic head sampling: keep a corr family when
   [hash(corr) mod head_mod = 0]. [head_mod = 1] keeps everything.
   Tail rules promote sampled-away spans that turn out interesting:
   slower than [slow_cycles], carrying an error name or a non-"ok"
   status. Corr 0 (uncorrelated) spans are always kept — they are the
   low-volume control-plane events (client requests, switch decisions,
   sched/health marks) the sampled trace still needs for context. *)
let head_mod = ref 1
let slow_cycles = ref max_int

(* Open spans whose corr was sampled away, keyed by negative id; kept
   off the store so a tail rule can still resurrect them at finish. *)
let pending : (int, int * event) Hashtbl.t = Hashtbl.create 64
let next_pending = ref 0

(* One-shot per process: dropping events silently at scale is exactly
   the failure mode sampling exists to prevent, so say it once. *)
let warned_drop = ref false

(* Per-board completion sinks: the telemetry agent on board [b] taps
   the Dur spans that complete on [b]'s own domain, post-sampling, so
   shipping them over the fabric never reads another board's state. For
   one-shot completions the sink decision is a pure function of the
   span (keep_head/tail_keep), independent of whether the central store
   had room, so the same spans reach the same agent under Seq and
   partitioned engines; start/finish spans additionally require the
   open span to have found a slot (keep the cap ample when agents run).
   Sinks fire while the recorder lock is held: a sink must not call
   back into this module. Mark events are not delivered (frame-level
   points are too chatty for the wire; agents ship intervals). *)
let sinks : (int, event -> unit) Hashtbl.t = Hashtbl.create 8
let sinks_lock = Mutex.create ()

let set_sink ~board f =
  Mutex.lock sinks_lock;
  Hashtbl.replace sinks board f;
  Mutex.unlock sinks_lock

let clear_sink ~board =
  Mutex.lock sinks_lock;
  Hashtbl.remove sinks board;
  Mutex.unlock sinks_lock

let clear_sinks () =
  Mutex.lock sinks_lock;
  Hashtbl.reset sinks;
  Mutex.unlock sinks_lock

(* Deliver a completed Dur span to its board's sink, if any. *)
let notify ev =
  if ev.board >= 0 then begin
    Mutex.lock sinks_lock;
    let f = Hashtbl.find_opt sinks ev.board in
    Mutex.unlock sinks_lock;
    match f with Some f -> f ev | None -> ()
  end

let set_enabled b = flag := b
let on () = !flag

let reset_locked () =
  store := [||];
  n := 0;
  n_dropped := 0;
  n_sampled := 0;
  Hashtbl.reset pending;
  incr epoch

let reset () =
  Mutex.lock lock;
  reset_locked ();
  Mutex.unlock lock

let set_capacity c =
  assert (c > 0);
  Mutex.lock lock;
  cap := c;
  reset_locked ();
  Mutex.unlock lock

(* APIARY_OBS_CAP sizes the buffer from the environment, so full-scale
   --obs runs can raise the cap without a code change. Garbage values
   warn once and keep the default (Env). *)
let () = cap := Env.int "APIARY_OBS_CAP" ~default:!cap

let set_sampling ?head_mod:(hm = 1) ?slow_cycles:(sc = max_int) () =
  if hm < 1 then invalid_arg "Span.set_sampling: head_mod must be >= 1";
  Mutex.lock lock;
  head_mod := hm;
  slow_cycles := sc;
  Mutex.unlock lock

(* Avalanche mix (splitmix-style finalizer with 62-bit-safe odd
   constants — OCaml ints are 63-bit, the classic 64-bit constants do
   not fit). Spreads consecutive corr ids uniformly so [mod head_mod]
   picks an unbiased, deterministic subset. *)
let mix x =
  let h = x lxor (x lsr 30) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 27) in
  let h = h * 0x3C79AC492BA7B653 in
  let h = h lxor (h lsr 31) in
  h land max_int

let keep_head corr =
  corr = 0 || !head_mod <= 1 || mix corr mod !head_mod = 0

(* Names that always survive sampling: faults and rejections are the
   spans a postmortem needs most. *)
let tail_name = function
  | "fault" | "deny" | "drop" | "timeout" | "failover" | "board_down" -> true
  | _ -> false

let tail_keep ~name ~dur args =
  dur >= !slow_cycles
  || tail_name name
  || (match List.assoc_opt "status" args with
     | Some s -> s <> "ok"
     | None -> false)

(* Append; caller must hold the lock. Returns the 1-based slot or 0 when
   full. *)
let push_locked ev =
  if !n >= !cap then begin
    incr n_dropped;
    if not !warned_drop then begin
      warned_drop := true;
      Printf.eprintf
        "apiary obs: span buffer full at %d events; dropping (raise with \
         APIARY_OBS_CAP or enable sampling)\n\
         %!"
        !cap
    end;
    0
  end
  else begin
    if !n >= Array.length !store then begin
      let grown = Array.make (max 1024 (2 * Array.length !store)) ev in
      Array.blit !store 0 grown 0 !n;
      store := grown
    end;
    !store.(!n) <- ev;
    incr n;
    !n
  end

let start ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts () =
  if not !flag then null
  else begin
    let ev =
      { seq = 0; name; cat; corr; board; track; ts; dur = -1; ph = Dur; args }
    in
    Mutex.lock lock;
    let id =
      if keep_head corr then begin
        let slot = push_locked ev in
        if slot = 0 then null else (!epoch * !cap) + slot
      end
      else begin
        (* Sampled away for now; park it so a tail rule can promote it
           when the close reveals an error or a slow request. *)
        decr next_pending;
        Hashtbl.replace pending !next_pending (!epoch, ev);
        !next_pending
      end
    in
    Mutex.unlock lock;
    id
  end

(* Finishing is allowed even after tracing was switched off, so spans
   opened during a run can be closed by callbacks that fire after the
   driver disabled capture (a null id still short-circuits). *)
let finish ?(args = []) ~ts id =
  if id <> null then begin
    Mutex.lock lock;
    if id < 0 then begin
      (* A parked head-sampled span: promote it if a tail rule fires on
         the completed interval, count it sampled otherwise. *)
      match Hashtbl.find_opt pending id with
      | Some (e, ev) when e = !epoch ->
        Hashtbl.remove pending id;
        let dur = max 0 (ts - ev.ts) in
        let merged = if args = [] then ev.args else ev.args @ args in
        if tail_keep ~name:ev.name ~dur merged then begin
          ev.dur <- dur;
          ev.args <- merged;
          ignore (push_locked ev);
          notify ev
        end
        else incr n_sampled
      | _ -> Hashtbl.remove pending id
    end
    else begin
      let e = id / !cap and slot = id mod !cap in
      if e = !epoch && slot >= 1 && slot <= !n then begin
        let ev = !store.(slot - 1) in
        if ev.dur < 0 then begin
          ev.dur <- max 0 (ts - ev.ts);
          if args <> [] then ev.args <- ev.args @ args;
          notify ev
        end
      end
    end;
    Mutex.unlock lock
  end

let complete ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts ~dur
    () =
  if !flag then begin
    let dur = max 0 dur in
    Mutex.lock lock;
    if keep_head corr || tail_keep ~name ~dur args then begin
      let ev =
        { seq = 0; name; cat; corr; board; track; ts; dur; ph = Dur; args }
      in
      ignore (push_locked ev);
      notify ev
    end
    else incr n_sampled;
    Mutex.unlock lock
  end

let instant ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts () =
  if !flag then begin
    Mutex.lock lock;
    if keep_head corr || tail_keep ~name ~dur:0 args then
      ignore
        (push_locked
           { seq = 0; name; cat; corr; board; track; ts; dur = 0; ph = Mark; args })
    else incr n_sampled;
    Mutex.unlock lock
  end

(* Grouped by board, in recording order within each board. A board
   records only from its own partition, so this order is the same under
   every engine mode; the global interleaving of boards is not. *)
let events () =
  Mutex.lock lock;
  let evs = Array.sub !store 0 !n in
  Mutex.unlock lock;
  Array.stable_sort (fun a b -> Int.compare a.board b.board) evs;
  List.init (Array.length evs) (fun i -> { evs.(i) with seq = i })

let count () =
  Mutex.lock lock;
  let c = !n in
  Mutex.unlock lock;
  c

let dropped () =
  Mutex.lock lock;
  let d = !n_dropped in
  Mutex.unlock lock;
  d

let sampled () =
  Mutex.lock lock;
  let s = !n_sampled in
  Mutex.unlock lock;
  s
