(* Zipfian open-loop schedule over a keyspace.

   Operation [i] is due at sim time [(i + 1) / rate], whatever happened
   before it: a slow system faces the same arrivals and its queue grows.
   Writes and reads alternate, so each is exactly half, on a key drawn
   from a Zipf(s) law over [keys] (key 0 is the most popular), issued by
   one of the clients of its kind. Clients have one lane per key, and a
   lane may hold one operation at a time, so successive operations on a
   (client, key) lane are spaced at least [lane_gap] apart; [lane_gap]
   must exceed the worst-case operation latency. When every lane of the
   drawn key is busy, the key is drawn again. *)

type kind = Write | Read

type op = {
  due : float;
  key : int;
  kind : kind;
  client : int;  (* writer or reader index, by [kind] *)
  index : int  (* writes: index of the value written; reads: -1 *)
}

type t = {
  ops : op array;  (* ascending [due] *)
  writes : int
}

(* cdf.(i) = P(key <= i) *)
let cdf ~keys ~s =
  let c = Array.init keys (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  for i = 1 to keys - 1 do
    c.(i) <- c.(i) +. c.(i - 1)
  done;
  let total = c.(keys - 1) in
  Array.map (fun x -> x /. total) c

let draw st cdf =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let schedule ~seed ~keys ~s ~ops ~rate ~writers ~readers ~lane_gap =
  let st = Random.State.make [| seed; 0x21bf |] in
  let cdf = cdf ~keys ~s in
  (* next due time at which lane (kind, client, key) is free *)
  let free = Hashtbl.create 4096 in
  let lane kind client key =
    ((match kind with Write -> 0 | Read -> 1) * max writers readers + client)
    * keys
    + key
  in
  let rr = [| 0; 0 |] in
  let writes = ref 0 in
  let make i =
    let due = float_of_int (i + 1) /. rate in
    let kind = if i mod 2 = 0 then Write else Read in
    let slot, clients = match kind with Write -> (0, writers) | Read -> (1, readers) in
    let rec pick () =
      let key = draw st cdf in
      let rec try_client j =
        if j = clients then None
        else
          let c = (rr.(slot) + j) mod clients in
          let l = lane kind c key in
          match Hashtbl.find_opt free l with
          | Some t when t > due -> try_client (j + 1)
          | _ -> Some (c, l)
      in
      match try_client 0 with
      | Some (c, l) ->
        Hashtbl.replace free l (due +. lane_gap);
        rr.(slot) <- (c + 1) mod clients;
        (key, c)
      | None -> pick ()
    in
    let key, client = pick () in
    let index =
      match kind with
      | Write ->
        incr writes;
        !writes - 1
      | Read -> -1
    in
    { due; key; kind; client; index }
  in
  let ops = Array.init ops make in
  { ops; writes = !writes }
