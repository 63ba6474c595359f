module Sim = Apiary_engine.Sim
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry

type port = { link : Link.t; side : Link.side }

(* Per-port statistics, attributed to the ingress port of the frame
   (drops include frames discarded because the egress port was down). *)
type port_stats = {
  mutable p_forwarded : int;
  mutable p_flooded : int;
  mutable p_dropped : int;
}

type t = {
  sim : Sim.t;
  latency : int;
  fdb_capacity : int;
  ports : port option array;
  up : bool array;
  pstats : port_stats array;
  fdb : (int, int) Hashtbl.t;  (* MAC -> port *)
  fdb_order : int Queue.t;  (* MACs in learn order, for FIFO eviction *)
  mutable forwarded : int;
  mutable flooded : int;
  mutable dropped : int;
}

let create ?(fdb_capacity = 1024) sim ~nports ~latency =
  assert (nports > 0 && latency >= 0 && fdb_capacity > 0);
  {
    sim;
    latency;
    fdb_capacity;
    ports = Array.make nports None;
    up = Array.make nports true;
    pstats =
      Array.init nports (fun _ ->
          { p_forwarded = 0; p_flooded = 0; p_dropped = 0 });
    fdb = Hashtbl.create 32;
    fdb_order = Queue.create ();
    forwarded = 0;
    flooded = 0;
    dropped = 0;
  }

let learn t mac port =
  if Hashtbl.mem t.fdb mac then Hashtbl.replace t.fdb mac port
  else begin
    (* Bounded learning table: evict the oldest entry FIFO when full, so
       a MAC-flooding host cannot grow the table without bound. *)
    if Hashtbl.length t.fdb >= t.fdb_capacity then begin
      let victim = Queue.pop t.fdb_order in
      Hashtbl.remove t.fdb victim
    end;
    Hashtbl.add t.fdb mac port;
    Queue.push mac t.fdb_order
  end

let transmit t pi frame =
  match t.ports.(pi) with
  | None -> false
  | Some p ->
    if t.up.(pi) then begin
      Link.send p.link ~from:p.side frame;
      true
    end
    else false

let drop t in_port =
  t.dropped <- t.dropped + 1;
  t.pstats.(in_port).p_dropped <- t.pstats.(in_port).p_dropped + 1

(* Span track for switch port [p]; the switch is rack-level (board -1),
   so ports share pid 0 with other rack components. *)
let obs_track p = 1000 + p

let obs_span t ?(lat = t.latency) in_port name =
  if Span.on () then
    (* The cut-through decision happened [lat] cycles ago; the span
       covers the switch transit so the trace shows frames dwelling in
       the ToR between the two boards' frame.tx/frame.rx instants. *)
    Span.complete ~cat:"switch" ~name ~track:(obs_track in_port)
      ~ts:(Sim.now t.sim - lat) ~dur:lat ()

let forward t in_port (frame : Frame.t) =
  if not t.up.(in_port) then begin
    drop t in_port;
    obs_span t ~lat:0 in_port "drop"
  end
  else begin
    learn t frame.Frame.src in_port;
    Sim.after t.sim t.latency (fun () ->
        match Hashtbl.find_opt t.fdb frame.Frame.dst with
        | Some pi when pi <> in_port ->
          if transmit t pi frame then begin
            t.forwarded <- t.forwarded + 1;
            t.pstats.(in_port).p_forwarded <- t.pstats.(in_port).p_forwarded + 1;
            obs_span t in_port "fwd"
          end
          else begin
            drop t in_port (* egress port down or unplugged *);
            obs_span t in_port "drop"
          end
        | Some _ ->
          drop t in_port (* destination is behind the ingress port *);
          obs_span t in_port "drop"
        | None ->
          t.flooded <- t.flooded + 1;
          t.pstats.(in_port).p_flooded <- t.pstats.(in_port).p_flooded + 1;
          obs_span t in_port "flood";
          Array.iteri
            (fun pi p ->
              if pi <> in_port && p <> None then ignore (transmit t pi frame))
            t.ports)
  end

let attach t ~port link side =
  assert (t.ports.(port) = None);
  t.ports.(port) <- Some { link; side };
  Link.on_recv link side (fun f -> forward t port f)

let set_port_up t ~port up = t.up.(port) <- up
let port_up t ~port = t.up.(port)
let frames_forwarded t = t.forwarded
let frames_flooded t = t.flooded
let frames_dropped t = t.dropped
let table_size t = Hashtbl.length t.fdb
let fdb_capacity t = t.fdb_capacity
let port_forwarded t ~port = t.pstats.(port).p_forwarded
let port_flooded t ~port = t.pstats.(port).p_flooded
let port_dropped t ~port = t.pstats.(port).p_dropped

let register_metrics t reg ~prefix =
  let g name = prefix ^ ".switch." ^ name in
  let port pi ps =
    [
      (g (Printf.sprintf "p%d.forwarded" pi), fun () -> ps.p_forwarded);
      (g (Printf.sprintf "p%d.dropped" pi), fun () -> ps.p_dropped);
    ]
  in
  Registry.add_int_sampler reg
    ~name:(prefix ^ ".switch")
    ([
       (g "forwarded", fun () -> t.forwarded);
       (g "flooded", fun () -> t.flooded);
       (g "dropped", fun () -> t.dropped);
       (g "fdb_size", fun () -> Hashtbl.length t.fdb);
     ]
    @ List.concat (List.mapi port (Array.to_list t.pstats)))
