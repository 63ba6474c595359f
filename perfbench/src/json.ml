(* Minimal JSON values and a printer — the benchmark's only output
   format. Floats print with 17 significant digits so a measured time
   keeps every digit it was measured with. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  to_buffer b v;
  Buffer.contents b

let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)
let floats kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs)

(* A parser for the subset [to_string] prints (the tests read episode
   results back with it). *)
exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Parse_error (Printf.sprintf "%s at %d" what !pos)) in
  let rec ws () =
    match peek () with ' ' | '\n' | '\t' | '\r' -> incr pos; ws () | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 'u' ->
          let hex = String.sub s (!pos + 1) 4 in
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex)));
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        incr pos;
        go ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do incr pos done;
    let t = String.sub s start (!pos - start) in
    match int_of_string_opt t with
    | Some i -> Int i
    | None -> Float (float_of_string t)
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" (Float nan)
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> (
    try List.assoc k kvs
    with Not_found -> raise (Parse_error ("no member " ^ k)))
  | _ -> raise (Parse_error ("not an object, looking up " ^ k))

let to_int = function Int i -> i | _ -> raise (Parse_error "not an int")
let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> raise (Parse_error "not a number")
