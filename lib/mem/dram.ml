module Sim = Apiary_engine.Sim

type config = {
  channels : int;
  banks_per_channel : int;
  row_bytes : int;
  t_cas : int;
  t_rcd : int;
  t_rp : int;
  bus_bytes_per_cycle : int;
  queue_depth : int;
}

let default_config =
  {
    channels = 1;
    banks_per_channel = 8;
    row_bytes = 2048;
    t_cas = 8;
    t_rcd = 8;
    t_rp = 8;
    bus_bytes_per_cycle = 16;
    queue_depth = 16;
  }

type req = {
  addr : int;
  len : int;
  kind : kind;
}

and kind = Read of (bytes -> unit) | Write of bytes * (unit -> unit)

type bank = {
  mutable open_row : int;  (* -1 = none *)
  mutable busy : bool;
  queue : req Queue.t;
}

type channel = { banks : bank array; mutable bus_free_at : int }

(* Backing store: fixed 4 KiB pages, allocated on first write. Every
   untouched page is the one shared [absent] sentinel and reads as
   zeros, so host memory tracks what the simulation actually wrote,
   not the device's nominal size. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let absent = Bytes.create 0

type t = {
  sim : Sim.t;
  cfg : config;
  size : int;
  pages : Bytes.t array;
  mutable resident : int;  (* pages allocated so far *)
  chans : channel array;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_row_hits : int;
  mutable n_row_misses : int;
  mutable n_bytes : int;
}

let create sim cfg ~size_bytes =
  assert (size_bytes > 0);
  {
    sim;
    cfg;
    size = size_bytes;
    pages = Array.make ((size_bytes + page_size - 1) / page_size) absent;
    resident = 0;
    chans =
      Array.init cfg.channels (fun _ ->
          {
            banks =
              Array.init cfg.banks_per_channel (fun _ ->
                  { open_row = -1; busy = false; queue = Queue.create () });
            bus_free_at = 0;
          });
    n_reads = 0;
    n_writes = 0;
    n_row_hits = 0;
    n_row_misses = 0;
    n_bytes = 0;
  }

let size t = t.size
let resident_bytes t = t.resident * page_size
let config t = t.cfg
let reads t = t.n_reads
let writes t = t.n_writes
let row_hits t = t.n_row_hits
let row_misses t = t.n_row_misses
let bytes_transferred t = t.n_bytes

(* Address mapping: row-interleaved across banks, banks interleaved across
   channels, so sequential streams hit open rows within a bank. *)
let locate t addr =
  let row_global = addr / t.cfg.row_bytes in
  let chan_i = row_global mod t.cfg.channels in
  let bank_i = row_global / t.cfg.channels mod t.cfg.banks_per_channel in
  let row = row_global / t.cfg.channels / t.cfg.banks_per_channel in
  (t.chans.(chan_i), t.chans.(chan_i).banks.(bank_i), row)

(* Copy device bytes [addr, addr + len) into a fresh buffer, page span
   by page span; absent pages leave the buffer's zeros in place. *)
let load t ~addr ~len =
  let buf = Bytes.make len '\000' in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land (page_size - 1) in
    let n = min (len - !pos) (page_size - off) in
    let p = t.pages.(a lsr page_bits) in
    if p != absent then Bytes.blit p off buf !pos n;
    pos := !pos + n
  done;
  buf

let store t ~addr b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let i = a lsr page_bits in
    let off = a land (page_size - 1) in
    let n = min (len - !pos) (page_size - off) in
    if t.pages.(i) == absent then begin
      t.pages.(i) <- Bytes.make page_size '\000';
      t.resident <- t.resident + 1
    end;
    Bytes.blit b !pos t.pages.(i) off n;
    pos := !pos + n
  done

let check_range t ~addr ~len =
  if addr < 0 || addr + len > t.size then
    invalid_arg "Dram: access out of physical range"

let perform t r =
  match r.kind with
  | Read cb ->
    t.n_reads <- t.n_reads + 1;
    t.n_bytes <- t.n_bytes + r.len;
    cb (load t ~addr:r.addr ~len:r.len)
  | Write (b, cb) ->
    t.n_writes <- t.n_writes + 1;
    t.n_bytes <- t.n_bytes + Bytes.length b;
    store t ~addr:r.addr b;
    cb ()

(* Serve the head of a bank's queue; reschedules itself until empty. *)
let rec kick t chan bank =
  if (not bank.busy) && not (Queue.is_empty bank.queue) then begin
    let r = Queue.take bank.queue in
    let _, _, row = locate t r.addr in
    let access =
      if bank.open_row = row then begin
        t.n_row_hits <- t.n_row_hits + 1;
        t.cfg.t_cas
      end
      else begin
        t.n_row_misses <- t.n_row_misses + 1;
        bank.open_row <- row;
        t.cfg.t_rp + t.cfg.t_rcd + t.cfg.t_cas
      end
    in
    let now = Sim.now t.sim in
    let transfer =
      (r.len + t.cfg.bus_bytes_per_cycle - 1) / t.cfg.bus_bytes_per_cycle
    in
    let transfer = max 1 transfer in
    (* The data burst needs the channel bus after the access latency. *)
    let burst_start = max (now + access) chan.bus_free_at in
    let done_at = burst_start + transfer in
    chan.bus_free_at <- done_at;
    bank.busy <- true;
    Sim.at t.sim done_at (fun () ->
        bank.busy <- false;
        perform t r;
        kick t chan bank)
  end

let submit t r =
  check_range t ~addr:r.addr ~len:r.len;
  let chan, bank, _ = locate t r.addr in
  if Queue.length bank.queue >= t.cfg.queue_depth then false
  else begin
    Queue.add r bank.queue;
    kick t chan bank;
    true
  end

let read t ~addr ~len cb = submit t { addr; len; kind = Read cb }
let write t ~addr b cb = submit t { addr; len = Bytes.length b; kind = Write (b, cb) }

let peek t ~addr ~len =
  check_range t ~addr ~len;
  load t ~addr ~len

let poke t ~addr b =
  check_range t ~addr ~len:(Bytes.length b);
  store t ~addr b
