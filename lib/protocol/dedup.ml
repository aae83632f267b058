(* Exactly-once filter over (origin, seq) pairs — the servers' "has this
   MD dispersal been delivered?" test.

   Every origin numbers its dispersals 0, 1, 2, ... ([Md.fresh_mid]),
   so instead of a set of every pair ever seen, each origin keeps a
   window over its sequence numbers:

   - [lo, base): every seq in it has been seen (the watermark);
   - [bits]: bit i is set iff seq [base + i] has been seen, i < width;
   - [over]: the seen seqs outside [lo, base + width).

   [base] itself is never seen between calls: an [add] that fills it
   slides the window up, pulling in each [over] entry the new top of
   the window reaches. The answers are exactly those of a set of every
   pair seen. When an origin's seqs all arrive, in any order within
   [width] of each other, its state is one record and [over] ends
   empty, however long the run. A seq that never arrives pins its
   origin's watermark, and later seqs from that origin then pile up in
   [over] as they would in a plain set. A drained [over] is dropped, so
   an origin's state returns to one record.

   A window normally starts at seq 0. One whose first seq is already
   past the first window (the origin was heard from before a [reset])
   starts at that seq instead, so a reset server does not park the
   origin's whole future in [over]; older stragglers land below [lo],
   in [over]. *)

let width = 62

type window = {
  lo : int; (* -1 only in [absent] *)
  mutable base : int;
  mutable bits : int;
  mutable over : Int_tbl.Set.t option (* [None] while empty *)
}

type t = { windows : window Int_tbl.Map.t; absent : window }

let create () =
  let absent = { lo = -1; base = 0; bits = 0; over = None } in
  { windows = Int_tbl.Map.create 4; absent }

let reset t = Int_tbl.Map.reset t.windows

let window t ~origin ~seq =
  let w = Int_tbl.Map.find t.windows origin ~default:t.absent in
  if w.lo >= 0 then w
  else begin
    let start = if seq < width then 0 else seq in
    let w = { lo = start; base = start; bits = 0; over = None } in
    Int_tbl.Map.replace t.windows origin w;
    w
  end

let add_over w seq =
  match w.over with
  | Some over -> Int_tbl.Set.add over seq
  | None ->
    let over = Int_tbl.Set.create 8 in
    w.over <- Some over;
    Int_tbl.Set.add over seq

(* The window just slid to [w.base]: its new top slot may already be in
   [over]. *)
let pull_top w =
  match w.over with
  | None -> ()
  | Some over ->
    if Int_tbl.Set.remove over (w.base + width - 1) then begin
      w.bits <- w.bits lor (1 lsl (width - 1));
      if Int_tbl.Set.length over = 0 then w.over <- None
    end

let add t ~origin ~seq =
  if seq < 0 then invalid_arg "Dedup.add: negative seq";
  let w = window t ~origin ~seq in
  let d = seq - w.base in
  if d >= width || seq < w.lo then add_over w seq
  else if d < 0 then false
  else begin
    let bit = 1 lsl d in
    if w.bits land bit <> 0 then false
    else begin
      w.bits <- w.bits lor bit;
      while w.bits land 1 <> 0 do
        w.bits <- w.bits lsr 1;
        w.base <- w.base + 1;
        pull_top w
      done;
      true
    end
  end

let overflow t =
  Int_tbl.Map.fold
    (fun _ w acc ->
      match w.over with
      | Some over -> acc + Int_tbl.Set.length over
      | None -> acc)
    t.windows 0
