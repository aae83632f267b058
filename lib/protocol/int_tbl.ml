(* Open-addressing hash tables keyed by non-negative ints.

   The simulator's hot paths (MD deduplication, the servers' H sets)
   perform millions of membership tests and insertions on small int
   keys. Stdlib [Hashtbl] pays a C call into the generic hasher plus a
   bucket-cons allocation per [add]; these tables use linear probing
   over flat int arrays — a multiply-and-mask plus a couple of cache
   lines per operation, and no allocation once grown.

   [Set.remove] deletes by backward shift, so no tombstones are left
   behind; [Map] deletes only wholesale, with [reset]. Capacities are
   powers of two, load factor <= 1/2. The empty slot is keyed by -1, so
   keys must be >= 0 — which packed tags, mids and coordinates are. *)

[@@@lint.allow
  "U1: the probe loops index keys/vals with h land t.mask and both \
   arrays have length t.mask + 1 — the masked index cannot escape"]

(* Fibonacci hashing: multiply by an odd 61-bit constant and keep the
   product's HIGH bits, which depend on every bit of the key.
   The low bits of a product depend only on the key's low bits, and a
   mid is [(seq lsl 20) lor origin]: masking the low bits would pick the
   slot by origin alone and chain a whole history into a few slots. *)
let[@inline] slot_of key mask = ((key * 0x1fd3eca2d2b1ba6d) lsr 32) land mask

module Set = struct
  type t = { mutable keys : int array; mutable size : int; mutable mask : int }

  let create capacity =
    let cap = ref 16 in
    while !cap < 2 * capacity do
      cap := !cap * 2
    done;
    { keys = Array.make !cap (-1); size = 0; mask = !cap - 1 }

  let length t = t.size

  let rec probe keys mask i key =
    let k = Array.unsafe_get keys i in
    if k = key then i
    else if k = -1 then lnot i (* free slot where the key would go *)
    else probe keys mask ((i + 1) land mask) key

  let mem t key = probe t.keys t.mask (slot_of key t.mask) key >= 0

  let grow t =
    let old = t.keys in
    let cap = 2 * Array.length old in
    t.keys <- Array.make cap (-1);
    t.mask <- cap - 1;
    Array.iter
      (fun k ->
        if k >= 0 then begin
          let i = probe t.keys t.mask (slot_of k t.mask) k in
          t.keys.(lnot i) <- k
        end)
      old

  (* [add t key] inserts and reports whether the key was new. *)
  let add t key =
    if key < 0 then invalid_arg "Int_tbl.Set.add: negative key";
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i >= 0 then false
    else begin
      t.keys.(lnot i) <- key;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t;
      true
    end

  (* Backward-shift deletion: after emptying slot [hole], walk the rest
     of the run and move back every key whose home slot does not lie
     cyclically in (hole, j] — exactly the keys the hole would otherwise
     cut off from their home. *)
  let remove t key =
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i < 0 then false
    else begin
      let keys = t.keys and mask = t.mask in
      let hole = ref i and j = ref ((i + 1) land mask) in
      while Array.unsafe_get keys !j <> -1 do
        let k = Array.unsafe_get keys !j in
        let home = slot_of k mask in
        let reachable =
          if !hole <= !j then home > !hole && home <= !j
          else home > !hole || home <= !j
        in
        if not reachable then begin
          Array.unsafe_set keys !hole k;
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      Array.unsafe_set keys !hole (-1);
      t.size <- t.size - 1;
      true
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.size <- 0

  let iter f t = Array.iter (fun k -> if k >= 0 then f k) t.keys
end

(* Same scheme with a parallel value array, allocated at the first
   insertion and padded with that first value (the generic interface
   has no other way to fill the unused slots). Lookups read a value
   slot only where [keys] holds the key, so a pad is never returned. *)
module Map = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;  (* [||] until the first insertion *)
    mutable size : int;
    mutable mask : int
  }

  let create capacity =
    let cap = ref 16 in
    while !cap < 2 * capacity do
      cap := !cap * 2
    done;
    { keys = Array.make !cap (-1); vals = [||]; size = 0; mask = !cap - 1 }

  let length t = t.size

  let rec probe keys mask i key =
    let k = Array.unsafe_get keys i in
    if k = key then i
    else if k = -1 then lnot i
    else probe keys mask ((i + 1) land mask) key

  let find_opt t key =
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i >= 0 then Some (Array.unsafe_get t.vals i) else None

  let find_exn t key =
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i >= 0 then Array.unsafe_get t.vals i else raise_notrace Not_found

  let find t key ~default =
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i >= 0 then Array.unsafe_get t.vals i else default

  let grow t ~pad =
    let okeys = t.keys and ovals = t.vals in
    let cap = 2 * Array.length okeys in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap pad;
    t.mask <- cap - 1;
    Array.iteri
      (fun j k ->
        if k >= 0 then begin
          let i = lnot (probe t.keys t.mask (slot_of k t.mask) k) in
          t.keys.(i) <- k;
          t.vals.(i) <- ovals.(j)
        end)
      okeys

  let replace t key v =
    if key < 0 then invalid_arg "Int_tbl.Map.replace: negative key";
    let i = probe t.keys t.mask (slot_of key t.mask) key in
    if i >= 0 then t.vals.(i) <- v
    else begin
      let i = lnot i in
      if Array.length t.vals = 0 then
        t.vals <- Array.make (Array.length t.keys) v;
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t ~pad:v
    end

  (* Dropping the value array releases every stored value (and pad)
     to the GC; the next insertion allocates a fresh one. *)
  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.vals <- [||];
    t.size <- 0

  let fold f t acc =
    let acc = ref acc in
    Array.iteri
      (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc)
      t.keys;
    !acc
end
