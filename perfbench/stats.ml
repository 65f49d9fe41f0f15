(* Order statistics over timing samples. *)

let sorted l = Array.of_list (List.sort compare l)

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile l q = quantile_sorted (sorted l) q
let median l = quantile l 0.5

(* The tail percentile reported as "p95": 0.95 when at least ten samples
   lie beyond it, else the highest percentile that keeps ten beyond it
   (never below the median). *)
let tail_q n =
  if n <= 0 then 0.5 else Float.max 0.5 (Float.min 0.95 (1. -. (10. /. float_of_int n)))

let tail l = quantile l (tail_q (List.length l))

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so steadiness figures match the
   acceptance rule that uses it. *)
let quartiles l =
  let d = sorted l in
  let ld = Array.length d in
  if ld < 2 then (Float.nan, Float.nan, Float.nan)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
