type t = {
  name : string;
  iters : Iter.t list;
  output : Access.t;
  inputs : Access.t list;
}

let v name ~iters ~output ~inputs =
  let d = List.length iters in
  if d = 0 then invalid_arg "Stmt.v: empty nest";
  if inputs = [] then invalid_arg "Stmt.v: no inputs";
  let check a =
    if Access.depth a <> d then
      invalid_arg
        (Printf.sprintf "Stmt.v: access %s has depth %d, nest has %d"
           a.Access.tensor (Access.depth a) d)
  in
  check output;
  List.iter check inputs;
  (* [domain_size] and every count derived from it are ints *)
  ignore
    (List.fold_left
       (fun acc (i : Iter.t) ->
         if i.Iter.extent > max_int / acc then
           invalid_arg
             "Stmt.v: the iteration domain (the product of the extents) \
              does not fit in an int";
         acc * i.Iter.extent)
       1 iters);
  { name; iters; output; inputs }

let depth s = List.length s.iters
let extents s = Array.of_list (List.map (fun i -> i.Iter.extent) s.iters)

let domain_size s =
  List.fold_left (fun acc i -> acc * i.Iter.extent) 1 s.iters

let tensors s = s.output :: s.inputs

let iter_domain s f =
  let ext = extents s in
  let n = Array.length ext in
  let x = Array.make n 0 in
  let rec go d = if d = n then f x
    else
      for v = 0 to ext.(d) - 1 do
        x.(d) <- v;
        go (d + 1)
      done
  in
  go 0

let pp ppf s =
  let pp_acc = Access.pp_with s.iters in
  Format.fprintf ppf "%a +=" pp_acc s.output;
  List.iteri
    (fun k a ->
      if k > 0 then Format.fprintf ppf " *";
      Format.fprintf ppf " %a" pp_acc a)
    s.inputs
