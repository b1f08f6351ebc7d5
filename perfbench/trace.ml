(* Spans and counters recorded by the benchmark around each public
   library call.  Disabled (the default), [span] is a direct call; on,
   every span records name, start, end, parent, operation id and the
   words this domain allocated, in memory, for [report] at the end. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* words allocated by the calling domain so far *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  t0 : int;
  t1 : int;
  a0 : float;
  a1 : float;
}

let on = ref false
let op_id = ref 0
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let counters : (string, int) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  Hashtbl.reset counters

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = alloc_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let a1 = alloc_words () in
      stack := List.tl !stack;
      spans := { id; name; op = !op_id; parent; t0; t1; a0; a1 } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let count name n =
  if !on then
    Hashtbl.replace counters name
      (n + Option.value (Hashtbl.find_opt counters name) ~default:0)

(* Spans indexed by id (ids are handed out at span start). *)
let recorded () =
  let a = Array.of_list !spans in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

