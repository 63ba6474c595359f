module Stats = Apiary_engine.Stats

(* One retained sample per histogram bucket, latest-wins. The store
   shares [Stats.Histogram]'s log-bucket grid, so the exemplar shown
   next to a p99 is guaranteed to live in the bucket the percentile was
   computed from — the metric→trace link is exact at bucket resolution,
   not a nearest-neighbour guess. *)

type sample = { x_corr : int; x_value : int; x_ts : int }

(* [slots] covers a prefix of the grid, grown to the highest bucket
   observed; a slot past the end is empty. *)
type t = { name : string; mutable slots : sample option array }

let create name = { name; slots = [||] }
let name t = t.name

let observe t ~corr ~value ~ts =
  let value = max 0 value in
  let b = Stats.Histogram.bucket_of value in
  t.slots <- Stats.Histogram.grow_slots t.slots b None;
  t.slots.(b) <- Some { x_corr = corr; x_value = value; x_ts = ts }

let slot t i = if i >= 0 && i < Array.length t.slots then t.slots.(i) else None
let find t ~value = slot t (Stats.Histogram.bucket_of value)

(* The bucket holding [value] may be empty even when neighbours are not
   (percentile math returns bucket midpoints; under merge the retained
   sample can sit one bucket off). Walk outward, preferring the lower
   bucket at equal distance — the sample shown for a p99 should err
   toward the faster outlier, never invent a slower one. *)
let near t ~value =
  let b = Stats.Histogram.bucket_of value in
  let n = Array.length t.slots in
  let rec go d =
    if d > b && b + d >= n then None
    else
      match slot t (b - d) with
      | Some s -> Some s
      | None -> (
        match slot t (b + d) with
        | Some s -> Some s
        | None -> go (d + 1))
  in
  go 0

let to_list t =
  let out = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    match t.slots.(i) with
    | Some s -> out := (i, s) :: !out
    | None -> ()
  done;
  !out

let reset t = Array.fill t.slots 0 (Array.length t.slots) None

let buf_add b t =
  Buffer.add_string b "{\"name\":";
  Export.buf_add_json_string b t.name;
  Buffer.add_string b ",\"exemplars\":[";
  List.iteri
    (fun i (bucket, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"bucket\":%d,\"bucket_value\":%d,\"corr\":%d,\"value\":%d,\"ts\":%d}"
           bucket
           (Stats.Histogram.bucket_value bucket)
           s.x_corr s.x_value s.x_ts))
    (to_list t);
  Buffer.add_string b "]}"

let json_string t =
  let b = Buffer.create 256 in
  buf_add b t;
  Buffer.contents b
