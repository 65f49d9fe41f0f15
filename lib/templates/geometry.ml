type pos = int * int

let in_grid ~rows ~cols (r, c) = r >= 0 && r < rows && c >= 0 && c < cols
let back (r, c) d = (r - d.(0), c - d.(1))

let line_rep ~rows ~cols ~dir p =
  if dir.(0) = 0 && dir.(1) = 0 then
    invalid_arg "Geometry.line_rep: zero direction";
  let rec walk p =
    let prev = back p dir in
    if in_grid ~rows ~cols prev then walk prev else p
  in
  walk p
