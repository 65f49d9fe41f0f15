type t = { name : string; extent : int }

let v name extent =
  if extent <= 0 then invalid_arg "Iter.v: extent must be positive";
  if String.length name = 0 then invalid_arg "Iter.v: empty name";
  { name; extent }

let pp ppf i = Format.fprintf ppf "%s<%d" i.name i.extent

let index_of iters name =
  let rec go k = function
    | [] -> raise Not_found
    | i :: rest -> if String.equal i.name name then k else go (k + 1) rest
  in
  go 0 iters
