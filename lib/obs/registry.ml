module Stats = Apiary_engine.Stats

type instrument =
  | Counter of Stats.Counter.t
  | Gauge of Stats.Gauge.t
  | Histogram of Stats.Histogram.t

(* A registry belongs to whoever writes it (a board's kernel, a rack, a
   collector) and takes no lock: only its owner's domain touches it
   during a run. *)
type t = {
  instruments : (string, instrument) Hashtbl.t;
  mutable samplers : (string * (unit -> unit)) list;
  mutable children : (string * t) list;
}

let create () = { instruments = Hashtbl.create 32; samplers = []; children = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create t name mk match_ =
  match Hashtbl.find_opt t.instruments name with
  | Some i -> (
    match match_ i with
    | Some v -> v
    | None ->
      invalid_arg (Printf.sprintf "Obs registry: %s is a %s" name (kind_name i)))
  | None ->
    let v, i = mk name in
    Hashtbl.replace t.instruments name i;
    v

let counter t name =
  get_or_create t name
    (fun n -> let c = Stats.Counter.create n in (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  get_or_create t name
    (fun n -> let g = Stats.Gauge.create n in (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram t name =
  get_or_create t name
    (fun n -> let h = Stats.Histogram.create n in (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let register t name i = Hashtbl.replace t.instruments name i

let find t name = Hashtbl.find_opt t.instruments name

let put name v l = (name, v) :: List.remove_assoc name l

let add_sampler t ~name f = t.samplers <- put name f t.samplers

let add_int_sampler t ~name readers =
  let gauges = List.map (fun (n, read) -> (gauge t n, read)) readers in
  add_sampler t ~name (fun () ->
      List.iter
        (fun (g, read) -> Stats.Gauge.set g (float_of_int (read ())))
        gauges)

let rec sample t =
  List.iter (fun (_, f) -> f ()) t.samplers;
  List.iter (fun (_, c) -> sample c) t.children

let rec bindings t acc =
  List.fold_left
    (fun acc (_, c) -> bindings c acc)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.instruments acc)
    t.children

(* One name, one instrument: a name bound by two owners is a wiring
   bug, not something to merge. *)
let rec check_unique = function
  | (a, _) :: ((b, _) :: _ as rest) ->
    if a = b then invalid_arg ("Obs registry: two owners bind " ^ a);
    check_unique rest
  | _ -> ()

let harvest t =
  sample t;
  let l = List.sort (fun (a, _) (b, _) -> compare a b) (bindings t []) in
  check_unique l;
  l

let rec reset t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> Stats.Counter.reset c
      | Gauge g -> Stats.Gauge.reset g
      | Histogram h -> Stats.Histogram.reset h)
    t.instruments;
  List.iter (fun (_, c) -> reset c) t.children

(* ------------------------------------------------------------------ *)
(* The process root: the built-in samplers plus every owner's registry,
   attached under the owner's name. Parallel sweeps build racks (which
   attach themselves) on worker domains, so the root alone keeps a
   lock. *)

let root = create ()
let lock = Mutex.create ()

let attach ?(parent = root) ~name child =
  let go () = parent.children <- put name child parent.children in
  if parent == root then Mutex.protect lock go else go ()

let snapshot () = Mutex.protect lock (fun () -> harvest root)

(* Built-ins. [obs.span.*] makes trace truncation visible in the
   metrics dump alone; [prof.*] publishes nothing with APIARY_PROF unset,
   which keeps obs metric dumps byte-stable. *)

module Profile = Apiary_engine.Profile

let install_builtins () =
  add_int_sampler root ~name:"obs.span"
    [
      ("obs.span.events", Span.count);
      ("obs.span.dropped", Span.dropped);
      ("obs.span.sampled", Span.sampled);
    ];
  add_sampler root ~name:"obs.prof" (fun () ->
      if Profile.enabled () then
        List.iter
          (fun (name, calls, skipped, seconds) ->
            let set what v =
              let name = Printf.sprintf "prof.%s.%s" name what in
              Stats.Gauge.set (gauge root name) v
            in
            set "calls" (float_of_int calls);
            set "skipped" (float_of_int skipped);
            set "seconds" seconds)
          (Profile.snapshot ()))

let clear () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset root.instruments;
      root.samplers <- [];
      root.children <- [];
      install_builtins ())

let () = install_builtins ()
