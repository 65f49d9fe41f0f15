type t = { shape : int array; strides : int array; data : int array }

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let max_elements = 1 lsl 24

(* the element count saturates past the limit, so it cannot wrap *)
let fits shape =
  Array.for_all (fun e -> e > 0) shape
  && Array.fold_left
       (fun n e -> if n > max_elements / e then max_elements + 1 else n * e)
       1 shape
     <= max_elements

let create shape =
  if Array.length shape = 0 then invalid_arg "Dense.create: empty shape";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Dense.create: non-positive extent")
    shape;
  if not (fits shape) then
    invalid_arg "Dense.create: more elements than Dense.max_elements";
  let size = Array.fold_left ( * ) 1 shape in
  { shape = Array.copy shape;
    strides = compute_strides shape;
    data = Array.make size 0 }

let shape t = Array.copy t.shape
let size t = Array.length t.data
let strides t = Array.copy t.strides
let data t = t.data

let offset t idx =
  if Array.length idx <> Array.length t.shape then
    invalid_arg "Dense.offset: rank mismatch";
  let off = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.shape.(d) then
        invalid_arg
          (Printf.sprintf "Dense.offset: index %d out of bounds [0,%d) at dim %d"
             i t.shape.(d) d);
      off := !off + (i * t.strides.(d)))
    idx;
  !off

let get t idx = t.data.(offset t idx)
let set t idx v = t.data.(offset t idx) <- v
let flat_get t i = t.data.(i)
let flat_set t i v = t.data.(i) <- v
let fill t v = Array.fill t.data 0 (Array.length t.data) v

let copy t =
  { shape = Array.copy t.shape;
    strides = Array.copy t.strides;
    data = Array.copy t.data }

let equal a b = a.shape = b.shape && a.data = b.data
let map f t = { t with data = Array.map f t.data }

let iteri f t =
  let n = Array.length t.shape in
  let idx = Array.make n 0 in
  Array.iteri
    (fun flat v ->
      let rem = ref flat in
      for d = 0 to n - 1 do
        idx.(d) <- !rem / t.strides.(d);
        rem := !rem mod t.strides.(d)
      done;
      f idx v)
    t.data

let init shape f =
  let t = create shape in
  iteri (fun idx _ -> set t idx (f idx)) t;
  t

let pp ppf t =
  Format.fprintf ppf "tensor%a[@[%a@]]"
    (fun ppf s ->
      Format.fprintf ppf "(%s)"
        (String.concat "x" (Array.to_list (Array.map string_of_int s))))
    t.shape
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Format.pp_print_int)
    t.data
