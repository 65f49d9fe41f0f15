type t = { tensor : string; matrix : int array array }

let v tensor matrix =
  if Array.length matrix = 0 then invalid_arg "Access.v: empty matrix";
  let d = Array.length matrix.(0) in
  if d = 0 then invalid_arg "Access.v: empty row";
  Array.iter
    (fun r ->
      if Array.length r <> d then invalid_arg "Access.v: ragged matrix")
    matrix;
  { tensor; matrix }

let of_terms tensor ~depth rows =
  let build positions =
    let r = Array.make depth 0 in
    List.iter
      (fun j ->
        if j < 0 || j >= depth then invalid_arg "Access.of_terms: bad index";
        r.(j) <- r.(j) + 1)
      positions;
    r
  in
  v tensor (Array.of_list (List.map build rows))

let rank a = Array.length a.matrix
let depth a = Array.length a.matrix.(0)

let index a x =
  if Array.length x <> depth a then invalid_arg "Access.index: bad depth";
  Array.map
    (fun row ->
      let acc = ref 0 in
      Array.iteri (fun j c -> acc := !acc + (c * x.(j))) row;
      !acc)
    a.matrix

let shape a iters =
  let extents = Array.of_list (List.map (fun i -> i.Iter.extent) iters) in
  if Array.length extents <> depth a then
    invalid_arg "Access.shape: iterator count mismatch";
  (* the largest index is [Σ_{c>0} c (e − 1)], the smallest
     [Σ_{c<0} c (e − 1)]: it is negative as soon as one such term is, and
     the largest is summed only while it stays below [max_int], checked
     by division, so neither can wrap *)
  Array.map
    (fun row ->
      let hi = ref 0 in
      Array.iteri
        (fun j c ->
          let span = extents.(j) - 1 in
          if c < 0 && span > 0 then
            invalid_arg
              (Printf.sprintf
                 "Access.shape: an index of %s can go negative (offsets \
                  unsupported)"
                 a.tensor);
          if c > 0 && span > 0 then begin
            if c > (max_int - 1 - !hi) / span then
              invalid_arg
                (Printf.sprintf
                   "Access.shape: an index of %s does not fit in an int"
                   a.tensor);
            hi := !hi + (c * span)
          end)
        row;
      !hi + 1)
    a.matrix

let pp_row names ppf row =
  let first = ref true in
  Array.iteri
    (fun j c ->
      if c <> 0 then begin
        if not !first then Format.fprintf ppf "+";
        if c <> 1 then Format.fprintf ppf "%d*" c;
        Format.fprintf ppf "%s" names.(j);
        first := false
      end)
    row;
  if !first then Format.fprintf ppf "0"

let pp_gen names ppf a =
  Format.fprintf ppf "%s[" a.tensor;
  Array.iteri
    (fun i row ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_row names ppf row)
    a.matrix;
  Format.fprintf ppf "]"

let pp ppf a =
  let names = Array.init (depth a) (fun j -> Printf.sprintf "i%d" j) in
  pp_gen names ppf a

let pp_with iters ppf a =
  let names = Array.of_list (List.map (fun i -> i.Iter.name) iters) in
  pp_gen names ppf a
