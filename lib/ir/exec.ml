type env = (string * Dense.t) list

(* xorshift-style deterministic generator: keeps tests reproducible without
   touching the global Random state. *)
let small_values ~seed n =
  let state = ref (seed lxor 0x9e3779b9) in
  Array.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x land max_int;
      (x mod 17) - 8)

let alloc_inputs ?(seed = 42) stmt =
  List.mapi
    (fun k (a : Access.t) ->
      let t = Dense.create (Access.shape a stmt.Stmt.iters) in
      let vals = small_values ~seed:(seed + (k * 7919)) (Dense.size t) in
      Array.iteri (fun i v -> Dense.flat_set t i v) vals;
      (a.Access.tensor, t))
    stmt.Stmt.inputs

let alloc_output stmt =
  Dense.create (Access.shape stmt.Stmt.output stmt.Stmt.iters)

(* [t] holds every element [a] reaches over the box: the same rank, and
   each extent at least {!Access.shape}'s, which raises rather than wrap. *)
let check_fits stmt (a : Access.t) t =
  let need = Access.shape a stmt.Stmt.iters in
  let shape = Dense.shape t in
  if
    Array.length shape <> Array.length need
    || not (Array.for_all2 ( >= ) shape need)
  then
    let dims s = String.concat "x" (Array.to_list (Array.map string_of_int s)) in
    invalid_arg
      (Printf.sprintf "Exec.run: tensor %s has shape %s, its access needs %s"
         a.Access.tensor (dims shape) (dims need))

(* The flat-offset step of [a] along each loop: [Σ_r stride_r · A_rj]. *)
let steps (a : Access.t) t =
  let strides = Dense.strides t in
  Array.init (Access.depth a) (fun j ->
      let c = ref 0 in
      Array.iteri (fun r row -> c := !c + (strides.(r) * row.(j))) a.Access.matrix;
      !c)

(* A strided walk of the box in nest order, the last loop innermost: each
   access keeps its flat offset and adds its step as a loop advances.
   Every tensor is checked before anything is written, so the offsets of
   the points stay inside their arrays and no partial sum reaches the
   output of a run that fails. *)
let run_with stmt env out =
  let inputs =
    List.map
      (fun (a : Access.t) -> (a, List.assoc a.Access.tensor env))
      stmt.Stmt.inputs
  in
  let ext = Stmt.extents stmt in
  List.iter
    (fun (a, t) -> check_fits stmt a t)
    ((stmt.Stmt.output, out) :: inputs);
  let src = Array.of_list (List.map (fun (_, t) -> Dense.data t) inputs) in
  let step = Array.of_list (List.map (fun (a, t) -> steps a t) inputs) in
  let dst = Dense.data out and out_step = steps stmt.Stmt.output out in
  let n = Array.length src and last = Array.length ext - 1 in
  let inner = Array.map (fun s -> s.(last)) step in
  let out_inner = out_step.(last) in
  (* offsets of the current run's first point, and the outer loops' counters *)
  let base = Array.make n 0 and out_base = ref 0 in
  let pos = Array.make n 0 in
  let x = Array.make (max 1 last) 0 in
  let more = ref true in
  while !more do
    for k = 0 to n - 1 do
      pos.(k) <- base.(k)
    done;
    let o = ref !out_base in
    for _ = 1 to ext.(last) do
      let product = ref 1 in
      for k = 0 to n - 1 do
        let i = pos.(k) in
        product := !product * src.(k).(i);
        pos.(k) <- i + inner.(k)
      done;
      dst.(!o) <- dst.(!o) + !product;
      o := !o + out_inner
    done;
    (* advance the outer loops: the innermost one below its extent steps,
       every one inside it returns to 0 *)
    let j = ref (last - 1) in
    while !j >= 0 && x.(!j) = ext.(!j) - 1 do
      let back = ext.(!j) - 1 in
      x.(!j) <- 0;
      for k = 0 to n - 1 do
        base.(k) <- base.(k) - (back * step.(k).(!j))
      done;
      out_base := !out_base - (back * out_step.(!j));
      decr j
    done;
    if !j < 0 then more := false
    else begin
      x.(!j) <- x.(!j) + 1;
      for k = 0 to n - 1 do
        base.(k) <- base.(k) + step.(k).(!j)
      done;
      out_base := !out_base + out_step.(!j)
    end
  done

let run stmt env =
  let out = alloc_output stmt in
  run_with stmt env out;
  out
