(* In-memory spans around the benchmark's calls into each layer.

   A span has a name, a layer, wall-clock start and end, its parent
   span and the counters read when it closed. Spans are cheap (a few
   dozen per round), so every round records them; only a traced round
   also reads counters at the quarter marks of [Engine.run] and keeps
   the per-operation sim-time spans for the output file. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  layer : string;
  name : string;
  start : float;
  stop : float;
  counts : (string * float) list
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list
}

let now = Unix.gettimeofday
let create () = { spans = []; next = 0; stack = [] }
let current t = match t.stack with p :: _ -> p | [] -> -1

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ~layer ~name ~start ~stop counts =
  t.spans <-
    { id = fresh t; parent = current t; layer; name; start; stop; counts }
    :: t.spans

let span t ~layer name ?(counts = fun () -> []) f =
  let id = fresh t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start = now () in
  let r = f () in
  let stop = now () in
  t.stack <- List.tl t.stack;
  t.spans <-
    { id; parent; layer; name; start; stop; counts = counts () } :: t.spans;
  r

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

let total t name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration s else acc)
    0. t.spans

let mem t name = List.exists (fun s -> String.equal s.name name) t.spans

(* Self time per layer: each span's duration minus the part its child
   spans cover (children never overlap each other). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer)))
    t.spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
