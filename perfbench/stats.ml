(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array; [p] in [0, 100]. *)
let rank_index n p =
  let i = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  max 0 (min (n - 1) i)

let percentile a p = if Array.length a = 0 then nan else a.(rank_index (Array.length a) p)

let median xs = percentile (sorted xs) 50.

(* The highest percentile of the ladder with at least ten samples
   strictly above its rank: (percentile, value, samples beyond). *)
let tail a =
  let n = Array.length a in
  let ladder = [ 99.99; 99.9; 99.; 95.; 90.; 75.; 50. ] in
  let beyond p = n - 1 - rank_index n p in
  let p =
    match List.find_opt (fun p -> beyond p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile a p, max 0 (beyond p))
