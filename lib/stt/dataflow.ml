type vector = { dp : int array; dt : int }

type shape2d =
  | Broadcast
  | Multicast_stationary of { multicast : int array }
  | Systolic_multicast of { multicast : int array; systolic : vector }

type t =
  | Unicast
  | Stationary of { dt : int }
  | Systolic of vector
  | Multicast of { dp : int array }
  | Reuse2d of shape2d
  | Reuse_full

let line_count rows cols d =
  let total = rows * cols in
  (* length of a maximal line segment inside the grid *)
  let steps_r = if d.(0) = 0 then max_int else (rows - 1) / abs d.(0) in
  let steps_c = if d.(1) = 0 then max_int else (cols - 1) / abs d.(1) in
  let len = 1 + min steps_r steps_c in
  (total + len - 1) / len

let letter = function
  | Unicast -> 'U'
  | Stationary _ -> 'T'
  | Systolic _ -> 'S'
  | Multicast _ -> 'M'
  | Reuse2d _ | Reuse_full -> 'B'

let subspace_dim = function
  | Unicast -> 0
  | Stationary _ | Systolic _ | Multicast _ -> 1
  | Reuse2d _ -> 2
  | Reuse_full -> 3

(* Rendering goes through [Buffer] rather than [Format]: dataflow strings
   are the unit of work of signature canonicalisation (8 renders per
   enumerated design), and [Format.asprintf] is an order of magnitude
   slower than direct buffer appends. *)

(* [string_of_int v] without the string for the one-digit values that
   nearly every direction holds *)
let add_int buf v =
  if v >= 0 && v <= 9 then Buffer.add_char buf (Char.unsafe_chr (48 + v))
  else if v < 0 && v >= -9 then begin
    Buffer.add_char buf '-';
    Buffer.add_char buf (Char.unsafe_chr (48 - v))
  end
  else Buffer.add_string buf (string_of_int v)

let render_ints buf a =
  Buffer.add_char buf '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf v)
    a;
  Buffer.add_char buf ')'

let render_vector buf v =
  Buffer.add_string buf "dp=";
  render_ints buf v.dp;
  Buffer.add_string buf " dt=";
  add_int buf v.dt

let render buf = function
  | Unicast -> Buffer.add_string buf "unicast"
  | Stationary { dt } ->
    Buffer.add_string buf "stationary(dt=";
    add_int buf dt;
    Buffer.add_char buf ')'
  | Systolic v ->
    Buffer.add_string buf "systolic(";
    render_vector buf v;
    Buffer.add_char buf ')'
  | Multicast { dp } ->
    Buffer.add_string buf "multicast(dp=";
    render_ints buf dp;
    Buffer.add_char buf ')'
  | Reuse2d Broadcast -> Buffer.add_string buf "2d-broadcast"
  | Reuse2d (Multicast_stationary { multicast }) ->
    Buffer.add_string buf "2d-multicast+stationary(m=";
    render_ints buf multicast;
    Buffer.add_char buf ')'
  | Reuse2d (Systolic_multicast { multicast; systolic }) ->
    Buffer.add_string buf "2d-systolic+multicast(m=";
    render_ints buf multicast;
    Buffer.add_string buf ", s=";
    render_vector buf systolic;
    Buffer.add_char buf ')'
  | Reuse_full -> Buffer.add_string buf "full-reuse"

let to_string d =
  let buf = Buffer.create 48 in
  render buf d;
  Buffer.contents buf

let pp_vector ppf v =
  let buf = Buffer.create 24 in
  render_vector buf v;
  Format.pp_print_string ppf (Buffer.contents buf)

let pp ppf d = Format.pp_print_string ppf (to_string d)
