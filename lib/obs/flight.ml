(* Per-board event ring: a bounded ring of the most recent events —
   the flight recorder and the message trace in one. Off by default (so
   runs without introspection are byte-identical), its storage allocated
   by the first event recorded. On a fault or a watchdog trip the ring is
   frozen into a postmortem JSON dump — the black box that turns a silent
   fail-stop into an actionable event sequence. *)

type entry = {
  ts : int;
  tile : int;
  cat : string;
  name : string;
  corr : int;
  detail : string;
  args : (string * string) list;
}

type t = {
  cap : int;
  mutable ring : entry array;  (* [||] until the first record *)
  mutable next : int;
  mutable total : int;
  mutable on : bool;
  mutable board : int;
}

let default_capacity = 4096

let create ?capacity () =
  let cap =
    match capacity with
    | Some c -> c
    | None -> Env.int ~min:16 "APIARY_FLIGHT_CAP" ~default:default_capacity
  in
  assert (cap > 0);
  {
    cap;
    ring = [||];
    next = 0;
    total = 0;
    on = Sys.getenv_opt "APIARY_FLIGHT" = Some "1";
    board = -1;
  }

let set_enabled t b = t.on <- b
let enabled t = t.on
let set_board t id = t.board <- id
let board t = t.board
let capacity t = t.cap
let total t = t.total

let record t ~ts ~tile ~cat ~name ?(corr = 0) ?(detail = "") ?(args = []) () =
  if t.on then begin
    let e = { ts; tile; cat; name; corr; detail; args } in
    if Array.length t.ring = 0 then t.ring <- Array.make t.cap e;
    t.ring.(t.next) <- e;
    t.next <- (t.next + 1) mod t.cap;
    t.total <- t.total + 1
  end

let entries t =
  (* Until the ring first wraps the oldest entry is slot 0; after, it is
     the slot about to be overwritten. *)
  let first = if t.total > t.cap then t.next else 0 in
  List.init (min t.total t.cap) (fun i -> t.ring.((first + i) mod t.cap))

let merge ts =
  List.stable_sort
    (fun (_, a) (_, b) -> compare a.ts b.ts)
    (List.concat_map (fun t -> List.map (fun e -> (t.board, e)) (entries t)) ts)

let label e =
  match e.name with
  | "admit" -> "out"
  | "ingress" -> "in"
  | "deny" -> "DENY"
  | "fault" -> "FAULT"
  | name -> name

let pp_entry ppf (board, e) =
  let board = if board < 0 then "" else Printf.sprintf "b%-2d " board in
  let corr = if e.corr > 0 then Printf.sprintf " #%d" e.corr else "" in
  Format.fprintf ppf "[%8d] %stile%-3d %-5s %s%s" e.ts board e.tile (label e)
    e.detail corr

(* ------------------------------------------------------------------ *)
(* Postmortem JSON. Byte-stable: entries in ring order, args in
   recording order, no floats. *)

let dump_json t ~reason ~cycle =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"board\": ";
  Buffer.add_string buf (string_of_int t.board);
  Buffer.add_string buf ",\n  \"reason\": ";
  Export.buf_add_json_string buf reason;
  Buffer.add_string buf ",\n  \"cycle\": ";
  Buffer.add_string buf (string_of_int cycle);
  Buffer.add_string buf ",\n  \"capacity\": ";
  Buffer.add_string buf (string_of_int (capacity t));
  Buffer.add_string buf ",\n  \"recorded\": ";
  Buffer.add_string buf (string_of_int t.total);
  Buffer.add_string buf ",\n  \"events\": [";
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\"ts\": ";
      Buffer.add_string buf (string_of_int e.ts);
      Buffer.add_string buf ", \"tile\": ";
      Buffer.add_string buf (string_of_int e.tile);
      Buffer.add_string buf ", \"cat\": ";
      Export.buf_add_json_string buf e.cat;
      Buffer.add_string buf ", \"name\": ";
      Export.buf_add_json_string buf e.name;
      if e.corr <> 0 then begin
        Buffer.add_string buf ", \"corr\": ";
        Buffer.add_string buf (string_of_int e.corr)
      end;
      if e.detail <> "" then begin
        Buffer.add_string buf ", \"detail\": ";
        Export.buf_add_json_string buf e.detail
      end;
      if e.args <> [] then begin
        Buffer.add_string buf ", \"args\": {";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ", ";
            Export.buf_add_json_string buf k;
            Buffer.add_string buf ": ";
            Export.buf_add_json_string buf v)
          e.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    (entries t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_dump t ~reason ~cycle path =
  let oc = open_out path in
  output_string oc (dump_json t ~reason ~cycle);
  close_out oc
