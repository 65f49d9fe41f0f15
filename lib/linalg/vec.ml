type t = Rat.t array

let make n v = Array.make n v
let of_ints l = Array.of_list (List.map Rat.of_int l)
let of_list l = Array.of_list l
let dim = Array.length
let get v i = v.(i)
let map2 f a b =
  if dim a <> dim b then invalid_arg "Vec: dimension mismatch";
  Array.init (dim a) (fun i -> f a.(i) b.(i))

let add = map2 Rat.add
let sub = map2 Rat.sub
let scale k = Array.map (Rat.mul k)
let neg = Array.map Rat.neg

let dot a b =
  let products = map2 Rat.mul a b in
  Array.fold_left Rat.add Rat.zero products

let is_zero = Array.for_all Rat.is_zero
let equal a b = dim a = dim b && Array.for_all2 Rat.equal a b

let basis n i =
  Array.init n (fun j -> if j = i then Rat.one else Rat.zero)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let to_integer v =
  if is_zero v then invalid_arg "Vec.to_integer: zero vector";
  let lcm a b = Rat.mul_check (a / gcd a b) b in
  let denominators = Array.map (fun (r : Rat.t) -> r.Rat.den) v in
  let m = Array.fold_left lcm 1 denominators in
  let ints =
    Array.map (fun (r : Rat.t) -> Rat.mul_check r.Rat.num (m / r.Rat.den)) v
  in
  (* the gcd as a negative number: -|x| always fits, |min_int| does not.
     Dividing by it reverses every entry, except by -1, which could not
     negate min_int and is skipped. *)
  let g =
    Array.fold_left (fun acc x -> gcd acc (if x > 0 then -x else x)) 0 ints
  in
  let ints = if g = -1 then ints else Array.map (fun x -> x / g) ints in
  (* first nonzero entry positive *)
  let rec first_sign i =
    if i >= Array.length ints then 1
    else if ints.(i) <> 0 then compare ints.(i) 0
    else first_sign (i + 1)
  in
  if first_sign 0 < 0 then Array.map Rat.neg_check ints else ints

let pp ppf v =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Rat.pp)
    v
