module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry

type config = {
  cols : int;
  rows : int;
  vcs : int;
  depth : int;
  flit_bytes : int;
  routing : Routing.t;
  qos : bool;
}

let default_config =
  {
    cols = 4;
    rows = 4;
    vcs = 2;
    depth = 4;
    flit_bytes = 16;
    routing = Routing.Xy;
    qos = false;
  }

(* One mesh, possibly split into vertical stripes of columns, one
   Par_sim member per stripe. Stripe-indexed stats keep every hot-path
   write single-writer; public accessors aggregate on read (reads happen
   between runs, on the coordinating thread). *)
type 'a t = {
  engine : Par_sim.t option;
  sims : Sim.t array;  (* per stripe; length 1 when monolithic *)
  cfg : config;
  stripe_of_tile : int array;
  routers : 'a Router.t array;
  nics : 'a Nic.t array;
  rx_cbs : ('a Packet.t -> unit) array;
  lat_all : Stats.Histogram.t array;  (* per stripe *)
  lat_cls : Stats.Histogram.t array array;  (* [stripe].(cls) *)
  hops : Stats.Histogram.t array;
  sent : int array;  (* per stripe *)
  delivered : int array;
  col_regions : int array;  (* activity subregion id per mesh column *)
  mutable obs_board : int;  (* board id stamped on Span events; -1 = none *)
}

let sim t = t.sims.(0)
let stripes t = Array.length t.sims
let sim_of t s = t.sims.(s)
let config t = t.cfg
let idx t (c : Coord.t) = Coord.to_index ~cols:t.cfg.cols c
let stripe_of t (c : Coord.t) = t.stripe_of_tile.(idx t c)

let in_bounds t (c : Coord.t) =
  c.x >= 0 && c.x < t.cfg.cols && c.y >= 0 && c.y < t.cfg.rows

let coords t =
  List.init (t.cfg.cols * t.cfg.rows) (fun i -> Coord.of_index ~cols:t.cfg.cols i)

let nic_at t c = t.nics.(idx t c)
let router_at t c = t.routers.(idx t c)

let send t ~src ~dst ?(cls = 0) ?(corr = 0) ~payload_bytes payload =
  assert (in_bounds t src && in_bounds t dst);
  let size_flits = Packet.flits_for ~flit_bytes:t.cfg.flit_bytes ~payload_bytes in
  let s = stripe_of t src in
  let pkt =
    Packet.make ~corr ~src ~dst ~cls ~size_flits ~payload
      ~now:(Sim.now t.sims.(s)) ()
  in
  t.sent.(s) <- t.sent.(s) + 1;
  Nic.send (nic_at t src) pkt

let set_obs_board t board =
  t.obs_board <- board;
  Array.iteri (fun i r -> Router.set_obs r ~board ~track:i) t.routers;
  Array.iteri (fun i n -> Nic.set_obs n ~board ~track:i) t.nics

let set_receiver t c cb = t.rx_cbs.(idx t c) <- cb

(* Aggregating accessors. Per-stripe histograms hold disjoint samples of
   the same population, so merging bucket counts reproduces exactly the
   histogram a monolithic run records. *)
let merged name parts =
  if Array.length parts = 1 then parts.(0)
  else begin
    let h = Stats.Histogram.create name in
    Array.iter (fun src -> Stats.Histogram.merge_into ~src ~dst:h) parts;
    h
  end

let latency t = merged "noc.latency" t.lat_all

let latency_of_class t cls =
  let cls = if cls >= t.cfg.vcs then t.cfg.vcs - 1 else cls in
  merged
    (Printf.sprintf "noc.latency.c%d" cls)
    (Array.map (fun per -> per.(cls)) t.lat_cls)

let hop_histogram t = merged "noc.hops" t.hops
let sum = Array.fold_left ( + ) 0
let packets_sent t = sum t.sent
let packets_delivered t = sum t.delivered
let flits_routed t = Array.fold_left (fun a r -> a + Router.flits_routed r) 0 t.routers

let tx_backlog t = Array.fold_left (fun a n -> a + Nic.tx_backlog n) 0 t.nics

(* Armed (active-set) tickers per mesh column — the per-column aggregate
   activity bits of the hierarchical scheduler. *)
let column_activity t =
  Array.init t.cfg.cols (fun x ->
      Sim.region_active
        t.sims.(t.stripe_of_tile.(Coord.to_index ~cols:t.cfg.cols { Coord.x; y = 0 }))
        t.col_regions.(x))

let active_columns t =
  Array.fold_left (fun a n -> if n > 0 then a + 1 else a) 0 (column_activity t)

let neighbor t (c : Coord.t) (p : Port.t) : Coord.t option =
  let c' =
    match p with
    | Port.North -> { c with Coord.y = c.y - 1 }
    | Port.South -> { c with Coord.y = c.y + 1 }
    | Port.East -> { c with Coord.x = c.x + 1 }
    | Port.West -> { c with Coord.x = c.x - 1 }
    | Port.Local -> c
  in
  if p <> Port.Local && in_bounds t c' then Some c' else None

(* In-stripe wiring: direct channel connection, credits returned through
   the stripe's commit phase (one drain per cycle, not one event per
   popped flit). *)
let wire_local t sim r ~port:p ~vc:v ~(dest : 'a Router.chan) =
  Router.connect r ~port:p ~vc:v ~dest ~credits:t.cfg.depth;
  let pending = ref 0 in
  let drain () =
    let n = !pending in
    pending := 0;
    for _ = 1 to n do Router.credit r ~port:p ~vc:v done
  in
  dest.Router.on_pop <-
    (fun () ->
      if !pending = 0 then Sim.mark_dirty sim drain;
      incr pending)

(* Cross-stripe wiring: the link becomes a partition boundary with a
   one-cycle lookahead, matching the register it models. A flit routed
   in cycle [c] commits into the neighbour's input buffer as of cycle
   [c+1]: monolithically via the commit phase, across the boundary via a
   committed inject in [c+1]'s event phase — indistinguishable to every
   observer. Credits return with the same one-cycle latency in the other
   direction. *)
let wire_cross t eng ~sp ~sq r ~port:p ~vc:v ~(dest : 'a Router.chan) =
  let sim_p = t.sims.(sp) and sim_q = t.sims.(sq) in
  Router.connect_fn r ~port:p ~vc:v ~credits:t.cfg.depth
    ~push:(fun flit ->
      Par_sim.post eng ~src:sp ~dst:sq ~time:(Sim.now sim_p + 1) (fun () ->
          Router.chan_inject dest flit));
  let pending = ref 0 in
  let drain () =
    let n = !pending in
    pending := 0;
    Par_sim.post eng ~src:sq ~dst:sp ~time:(Sim.now sim_q + 1) (fun () ->
        for _ = 1 to n do Router.credit r ~port:p ~vc:v done)
  in
  dest.Router.on_pop <-
    (fun () ->
      if !pending = 0 then Sim.mark_dirty sim_q drain;
      incr pending)

let wire t =
  let link_dirs = [ Port.North; Port.East; Port.South; Port.West ] in
  let wire_one c =
    let r = router_at t c in
    let sp = stripe_of t c in
    let wire_dir p =
      match neighbor t c p with
      | None -> ()
      | Some nc ->
        let nr = router_at t nc in
        let sq = stripe_of t nc in
        for v = 0 to t.cfg.vcs - 1 do
          let dest = Router.input_chan nr (Port.opposite p) v in
          if sp = sq then wire_local t t.sims.(sp) r ~port:p ~vc:v ~dest
          else
            match t.engine with
            | Some eng -> wire_cross t eng ~sp ~sq r ~port:p ~vc:v ~dest
            | None -> assert false
        done
    in
    List.iter wire_dir link_dirs
  in
  List.iter wire_one (coords t)

let create ?engine sim cfg =
  assert (cfg.cols >= 1 && cfg.rows >= 1);
  assert (cfg.vcs >= 1 && cfg.depth >= 1 && cfg.flit_bytes >= 1);
  let n = cfg.cols * cfg.rows in
  let sims, nstripes =
    match engine with
    | None -> ([| sim |], 1)
    | Some eng ->
      let k = Par_sim.n_domains eng in
      if k > cfg.cols then
        invalid_arg "Mesh.create: more partitions than mesh columns";
      (Array.init k (Par_sim.sim eng), k)
  in
  (* Balanced blocks of columns; stripe boundaries cut only East/West
     links, whose latency (one cycle) is the engine's lookahead. *)
  let stripe_of_col x = x * nstripes / cfg.cols in
  let stripe_of_tile =
    Array.init n (fun i -> stripe_of_col (Coord.of_index ~cols:cfg.cols i).Coord.x)
  in
  (* One activity subregion per mesh column (in the stripe sim that owns
     the column): the column's routers + NICs share an aggregate
     activity bit, so a fully quiescent column reads as zero armed
     tickers while its neighbours run cycle-by-cycle. *)
  let col_regions =
    Array.init cfg.cols (fun x -> Sim.new_region sims.(stripe_of_col x))
  in
  let region_of_tile i =
    col_regions.((Coord.of_index ~cols:cfg.cols i).Coord.x)
  in
  let routers =
    Array.init n (fun i ->
        Router.create ~region:(region_of_tile i)
          sims.(stripe_of_tile.(i))
          ~coord:(Coord.of_index ~cols:cfg.cols i)
          ~vcs:cfg.vcs ~depth:cfg.depth ~routing:cfg.routing ~qos:cfg.qos)
  in
  let nics =
    Array.mapi
      (fun i r ->
        Nic.create ~region:(region_of_tile i)
          sims.(stripe_of_tile.(i))
          ~router:r ~depth:cfg.depth ~qos:cfg.qos)
      routers
  in
  let t =
    {
      engine;
      sims;
      cfg;
      stripe_of_tile;
      routers;
      nics;
      rx_cbs = Array.make n (fun _ -> ());
      lat_all =
        Array.init nstripes (fun _ -> Stats.Histogram.create "noc.latency");
      lat_cls =
        Array.init nstripes (fun _ ->
            Array.init cfg.vcs (fun c ->
                Stats.Histogram.create (Printf.sprintf "noc.latency.c%d" c)));
      hops = Array.init nstripes (fun _ -> Stats.Histogram.create "noc.hops");
      sent = Array.make nstripes 0;
      delivered = Array.make nstripes 0;
      col_regions;
      obs_board = -1;
    }
  in
  wire t;
  (* Delivery hook: record stats, then hand to the tile's receiver. *)
  Array.iteri
    (fun i nic ->
      let s = stripe_of_tile.(i) in
      let nsim = sims.(s) in
      Nic.set_rx nic (fun pkt ->
          let lat = Sim.now nsim - pkt.Packet.injected_at in
          Stats.Histogram.record t.lat_all.(s) lat;
          let cls = if pkt.Packet.cls >= cfg.vcs then cfg.vcs - 1 else pkt.Packet.cls in
          Stats.Histogram.record t.lat_cls.(s).(cls) lat;
          Stats.Histogram.record t.hops.(s) (Packet.hops pkt);
          t.delivered.(s) <- t.delivered.(s) + 1;
          if Span.on () then
            (* End-to-end transfer span, timed from NIC-queue entry so it
               covers injection backlog plus the per-hop child spans. *)
            Span.complete ~board:t.obs_board ~corr:pkt.Packet.corr
              ~args:[ ("hops", string_of_int (Packet.hops pkt)) ]
              ~cat:"noc" ~name:"xfer" ~track:i ~ts:pkt.Packet.injected_at
              ~dur:lat ();
          t.rx_cbs.(i) pkt))
    nics;
  t

let register_metrics t reg ~prefix =
  let g name = prefix ^ ".noc." ^ name in
  let routers =
    List.mapi
      (fun i r ->
        let c = Coord.of_index ~cols:t.cfg.cols i in
        let base = g (Printf.sprintf "r%d_%d" c.Coord.x c.Coord.y) in
        (base, r, t.sims.(t.stripe_of_tile.(i))))
      (Array.to_list t.routers)
  in
  Registry.add_int_sampler reg
    ~name:(g "counts")
    ([
       (g "sent", fun () -> packets_sent t);
       (g "delivered", fun () -> packets_delivered t);
       (g "active_cols", fun () -> active_columns t);
     ]
    @ List.map
        (fun (base, r, _) -> (base ^ ".occ", fun () -> Router.input_occupancy r))
        routers);
  let utils =
    List.map
      (fun (base, r, sim) -> (Registry.gauge reg (base ^ ".util"), r, sim))
      routers
  and latency_name = g "latency"
  and hops_name = g "hops" in
  Registry.add_sampler reg
    ~name:(prefix ^ ".noc")
    (fun () ->
      List.iter
        (fun (util, r, sim) ->
          let now = Sim.now sim in
          Stats.Gauge.set util
            (if now = 0 then 0.0
             else float_of_int (Router.busy_cycles r) /. float_of_int now))
        utils;
      (* A striped mesh merges its per-stripe histograms afresh on each
         read, so these are re-bound every sample. *)
      Registry.register reg latency_name (Registry.Histogram (latency t));
      Registry.register reg hops_name (Registry.Histogram (hop_histogram t)))
