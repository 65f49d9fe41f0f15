type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Detect overflow of [a * b] without Int64: check the division back. *)
let mul_check a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then raise Overflow;
  p

let add_check a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow;
  s

let neg_check a = if a = min_int then raise Overflow else -a

(* [gcd] of two nonzero ints is plus or minus their gcd; it is [min_int]
   only for [min_int] twice, where both quotients are 1.  The sign moves
   to the numerator last, so only a reduced fraction that does not fit
   raises. *)
let make num den =
  if den = 0 then raise Division_by_zero;
  if num = 0 then { num = 0; den = 1 }
  else
    let g = abs (gcd num den) in
    let num = num / g and den = den / g in
    if den < 0 then { num = neg_check num; den = neg_check den }
    else { num; den }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

let add a b =
  make (add_check (mul_check a.num b.den) (mul_check b.num a.den))
    (mul_check a.den b.den)

let neg a = { a with num = neg_check a.num }
let sub a b = add a (neg b)
let mul a b = make (mul_check a.num b.num) (mul_check a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)
let abs a = if a.num < 0 then neg a else a
let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  Stdlib.compare (mul_check a.num b.den) (mul_check b.num a.den)

let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1

let to_int a =
  if a.den <> 1 then invalid_arg "Rat.to_int: not an integer";
  a.num

let to_float a = float_of_int a.num /. float_of_int a.den

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal

let pp ppf a =
  if Stdlib.( = ) a.den 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
