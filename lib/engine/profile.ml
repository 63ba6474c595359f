type row = {
  name : string;
  mutable calls : int;
  mutable skipped : int;
  mutable seconds : float;
}

let enabled_of_env v = Option.map String.trim v = Some "1"
let on = lazy (enabled_of_env (Sys.getenv_opt "APIARY_PROF"))
let enabled () = Lazy.force on

(* The registry only grows under the lock; row fields are written by the
   single domain ticking the owning simulator and read by snapshot
   between runs. *)
let lock = Mutex.create ()
let rows : row list ref = ref []

let register name =
  let r = { name; calls = 0; skipped = 0; seconds = 0.0 } in
  Mutex.lock lock;
  rows := r :: !rows;
  Mutex.unlock lock;
  r

let now_s () = Unix.gettimeofday ()

let snapshot () =
  Mutex.lock lock;
  let all = !rows in
  Mutex.unlock lock;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let c, k, s =
        Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt tbl r.name)
      in
      Hashtbl.replace tbl r.name (c + r.calls, k + r.skipped, s +. r.seconds))
    all;
  let agg =
    Hashtbl.fold (fun name (c, k, s) acc -> (name, c, k, s) :: acc) tbl []
  in
  List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) agg

let reset () =
  Mutex.lock lock;
  List.iter
    (fun r ->
      r.calls <- 0;
      r.skipped <- 0;
      r.seconds <- 0.0)
    !rows;
  Mutex.unlock lock
