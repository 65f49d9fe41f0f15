(* Reference implementations the fast paths are checked against, by the
   test suite and by fuzz.exe.

   [analyze] is the rational reuse analysis (§IV, Eq. 2–3, Table I) that
   [Design.analyze] replaced with the integer classifier the sweeps run:
   the reuse basis [T · null(A_sel)] over exact rationals, Eq. 3's
   projector, and the unit-step descent that reduces a systolic
   direction against a multicast one.  [check_rank] compares the rank
   verdict and checked determinant of [Transform.check] with the
   rational [Mat.det] on [boundary_matrix] draws.  [design_space] is the
   per-candidate enumeration that [Enumerate.design_space] replaced:
   every candidate matrix becomes a [Transform.v] and is analysed, a
   selection (one [Tl_par] task each) keeps the first matrix of each
   dataflow list that passes the exclusions, and the survivors are
   deduplicated on the canonical (D4) signature.  [matching_designs] is
   the per-candidate name lookup that [Search.matching_designs] replaced.
   [space_footprint] is the point-by-point image of the selected box
   that [Transform.row_bounds] replaced in the L102 lint.
   [events] and [pe_active] read a schedule's materialised events.
   [tile_statistics] and [evaluate_reference], at the end, are the perf
   model's materialised statistics and exhaustive tile search; a tile is
   the schedule of its own statement ([tile_stmt]).
   [exec_run] is the golden executor's point-by-point interpreter that
   [Exec.run]'s strided walk replaced.  [Refsim] is the reference
   interpreter the simulator is checked against.  [campaign], last, is
   the fault campaign that simulates every fault, including those
   [Campaign.run_faults] prunes. *)

open Tensorlib
module Refsim = Refsim

(* Each point's indices through [Access.index], each element through a
   bounds-checked [Dense.get]: an input too small for its access raises
   only at the first point past it, after the earlier points' sums. *)
let exec_run stmt env =
  let out = Exec.alloc_output stmt in
  let inputs =
    List.map
      (fun (a : Access.t) -> (a, List.assoc a.Access.tensor env))
      stmt.Stmt.inputs
  in
  let out_access = stmt.Stmt.output in
  Stmt.iter_domain stmt (fun x ->
      let product =
        List.fold_left
          (fun acc (a, t) -> acc * Dense.get t (Access.index a x))
          1 inputs
      in
      let oi = Access.index out_access x in
      Dense.set out oi (Dense.get out oi + product));
  out

(* ------------------------------------------------------------------ *)
(* The rational reuse analysis.  [matrix t] is the STT matrix over the
   rationals, rebuilt from its integer rows. *)

let matrix (t : Transform.t) =
  Mat.of_int_rows (Array.to_list (Array.map Array.to_list t.Transform.imatrix))

let to_mat (a : Access.t) =
  Mat.make ~rows:(Access.rank a) ~cols:(Access.depth a) (fun i j ->
      Rat.of_int a.Access.matrix.(i).(j))

(* [(p, time)] for a selected-iterator point *)
let apply t x_sel =
  let n = Array.length t.Transform.selected in
  if Array.length x_sel <> n then invalid_arg "Transform.apply: bad point";
  let xv = Array.map Rat.of_int x_sel in
  let st = Mat.mul_vec (matrix t) xv in
  let p = Array.init (n - 1) (fun i -> Rat.to_int st.(i)) in
  (p, Rat.to_int st.(n - 1))

let inverse t =
  match Mat.inverse (matrix t) with
  | Some inv -> inv
  | None -> assert false (* full rank checked in [Transform.v] *)

(* the (rational) iteration point mapped to space-time position
   [(p, time)]: an iteration point exists there iff it is integral and
   within bounds *)
let inverse_apply t p time =
  let n = Array.length t.Transform.selected in
  if Array.length p <> n - 1 then
    invalid_arg "Transform.inverse_apply: bad space point";
  let st =
    Array.init n (fun i ->
        if i < n - 1 then Rat.of_int p.(i) else Rat.of_int time)
  in
  Mat.mul_vec (inverse t) st

(* the access matrix restricted to the selected iterator columns: the
   matrix [A] of Eq. 2 in the selected subspace *)
let restricted_access t (a : Access.t) =
  let full = to_mat a in
  Mat.make ~rows:(Mat.rows full) ~cols:(Array.length t.Transform.selected)
    (fun i j -> Mat.get full i t.Transform.selected.(j))

(* Eq. 2: a basis of the reuse subspace in space-time coordinates *)
let reuse_basis t access =
  let a_sel = restricted_access t access in
  let null = Mat.null_space a_sel in
  List.map (fun v -> Mat.mul_vec (matrix t) v) null

(* the literal Eq. 3 operator [E − (A·T⁻¹)⁺(A·T⁻¹)], whose image is the
   reuse subspace *)
let projector t access =
  let a_sel = restricted_access t access in
  let at = Mat.mul a_sel (inverse t) in
  let n = Mat.cols at in
  Mat.sub (Mat.identity n) (Mat.mul (Mat.pseudo_inverse at) at)

(* Normalise a rational space-time vector to a primitive integer vector with
   dt >= 0 (and first nonzero dp positive when dt = 0). *)
let normalize v =
  let ints = Vec.to_integer v in
  let n = Array.length ints in
  let dt = ints.(n - 1) in
  let ints = if dt < 0 then Array.map (fun x -> -x) ints else ints in
  (Array.sub ints 0 (n - 1), ints.(n - 1))

(* Reduce a systolic direction by integer multiples of the multicast
   direction to obtain a canonical small representative. *)
let reduce_against ~multicast (dp, dt) =
  let l1 a = Array.fold_left (fun acc x -> acc + abs x) 0 a in
  let sub k = Array.mapi (fun i x -> x - (k * multicast.(i))) dp in
  let rec improve best =
    let better =
      List.find_opt
        (fun k -> l1 (sub k) < l1 (sub best))
        [ best - 1; best + 1 ]
    in
    match better with Some k -> improve k | None -> best
  in
  let k = improve 0 in
  (sub k, dt)

let classify t access =
  let basis = reuse_basis t access in
  let sd = Transform.space_dims t in
  (* 1-D arrays are handled uniformly by padding directions to 2-D: the
     second (unused) array dimension never moves *)
  let pad dp = if sd = 1 then [| dp.(0); 0 |] else dp in
  match basis with
  | [] -> Dataflow.Unicast
  | [ r ] ->
    let dp, dt = normalize r in
    let dp = pad dp in
    if Array.for_all (fun x -> x = 0) dp then Dataflow.Stationary { dt }
    else if dt = 0 then Dataflow.Multicast { dp }
    else Dataflow.Systolic { dp; dt }
  | [ r1; r2 ] when sd = 2 ->
    let time_of v = v.(Vec.dim v - 1) in
    let t1 = time_of r1 and t2 = time_of r2 in
    if Rat.is_zero t1 && Rat.is_zero t2 then Dataflow.Reuse2d Dataflow.Broadcast
    else begin
      (* plane /\ {dt = 0} is spanned by w = t2*r1 - t1*r2 (nonzero since
         r1, r2 are independent and not both have zero time). *)
      let w = Vec.sub (Vec.scale t2 r1) (Vec.scale t1 r2) in
      let multicast, _ = normalize w in
      (* e_t in plane <=> [r1 r2] c = e_t solvable *)
      let n = Vec.dim r1 in
      let plane =
        Mat.make ~rows:n ~cols:2 (fun i j -> if j = 0 then r1.(i) else r2.(i))
      in
      let e_t = Vec.basis n (n - 1) in
      match Mat.solve plane e_t with
      | Some _ ->
        Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast })
      | None ->
        let base = if Rat.is_zero t1 then r2 else r1 in
        let dp, dt = reduce_against ~multicast (normalize base) in
        Dataflow.Reuse2d
          (Dataflow.Systolic_multicast
             { multicast; systolic = { Dataflow.dp; dt } })
    end
  | _ -> Dataflow.Reuse_full

(* brute force: do two selected iteration points access the same tensor
   element? *)
let reuses_same_element t access x1 x2 =
  let a_sel = restricted_access t access in
  let diff =
    Array.init (Array.length x1) (fun i -> Rat.of_int (x1.(i) - x2.(i)))
  in
  Vec.is_zero (Mat.mul_vec a_sel diff)

let analyze t =
  let stmt = t.Transform.stmt in
  Design.of_dataflows t
    (List.map (classify t) (stmt.Stmt.inputs @ [ stmt.Stmt.output ]))

(* Random classifier cases: a statement whose index terms carry
   coefficients above 1 (and sums of two iterators), with an integer STT
   matrix (n = 2, 3 or 4) whose entries reach past {-1, 0, 1}.  With three
   selected iterators a 2-D reuse plane runs [reduce_against]'s descent,
   one step per unit of the reduction, so coefficients stay below 2^8 and
   entries below 2^6 there; with two or four no descent runs, and a
   quarter of those draws take coefficients up to 2^61, where both
   classifiers refuse on overflow. *)
let classifier_case rng =
  let int = Random.State.int rng in
  let n = 2 + int 3 in
  let huge = n <> 3 && int 4 = 0 in
  let coef () =
    let c =
      match int 3 with
      | 0 -> 1
      | 1 -> 2 + int 8
      | _ ->
        if huge then 1 + Random.State.full_int rng (1 lsl 61) else 2 + int 256
    in
    if int 10 = 0 then -c else c
  in
  let depth = n + int 2 in
  let access name =
    Access.v name
      (Array.init (1 + int 3) (fun _ ->
           let row = Array.make depth 0 in
           for _ = 0 to int 2 do
             let j = int depth in
             row.(j) <- row.(j) + coef ()
           done;
           row))
  in
  let inputs =
    List.init (2 + int 2) (fun i -> access (String.make 1 "ABC".[i]))
  in
  let stmt =
    Stmt.v "classify"
      ~iters:(List.init depth (fun d -> Iter.v (String.make 1 "ijklm".[d]) 2))
      ~output:(access "O") ~inputs
  in
  let order = Array.init depth Fun.id in
  for i = depth - 1 downto 1 do
    let j = int (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let selected = Array.sub order 0 n in
  let entry () =
    match int 3 with 0 -> int 3 - 1 | 1 -> int 19 - 9 | _ -> int 129 - 64
  in
  let rec draw () =
    match
      Transform.v stmt ~selected
        ~matrix:(List.init n (fun _ -> List.init n (fun _ -> entry ())))
    with
    | t -> t
    | exception Invalid_argument _ -> draw ()
  in
  draw ()

type verdict =
  | Agree of Design.t
  | Refused  (** both overflow *)
  | Unchecked  (** the reference overflows, the classifier answers *)
  | Mismatch of string

(* [Design.analyze] against [analyze]: a refusal is right only where the
   reference overflows too *)
let check_classifier t =
  let show = Format.asprintf "%a" Design.pp_report in
  let reference = try Some (analyze t) with Rat.Overflow -> None in
  match (Design.analyze t, reference) with
  | d, Some r ->
    if d = r then Agree d else Mismatch (show d ^ "\nreference:\n" ^ show r)
  | _, None -> Unchecked
  | exception Reuse.Overflow msg -> (
    match reference with
    | None -> Refused
    | Some r -> Mismatch (msg ^ "; the reference returns\n" ^ show r))

(* ------------------------------------------------------------------ *)
(* The rank of [T] against the rational determinant.  [boundary_matrix]
   draws square integer matrices (n = 2 to 5) whose entries mix small
   values with the edges of native ints, in up to [n] cells: ±2^31 and
   ±2^32, whose product 2^63 wraps to 0; (2^63 + 1) / 3, whose triple
   wraps to 1; [max_int] (2^62 − 1) and [min_int].  A quarter of the
   rows after the first repeat an earlier one, so singular matrices with
   such entries come up too. *)

let boundary_values =
  [| 0; 1; -1; 1 lsl 31; -(1 lsl 31); 1 lsl 32; -(1 lsl 32);
     3074457345618258603; max_int; min_int |]

let boundary_matrix ?n rng =
  let int = Random.State.int rng in
  let n = match n with Some n -> n | None -> 2 + int 4 in
  let m = Array.init n (fun _ -> Array.init n (fun _ -> int 5 - 2)) in
  (* up to [n] cells at the edges *)
  for _ = 1 to int (n + 1) do
    m.(int n).(int n) <- boundary_values.(int (Array.length boundary_values))
  done;
  for i = 1 to n - 1 do
    if int 4 = 0 then m.(i) <- m.(int i)
  done;
  Array.to_list (Array.map Array.to_list m)

(* a loop nest over the box [ext] (up to 5 loops) for [Transform.check]
   to select every iterator of *)
let box_stmt ext =
  let n = Array.length ext in
  Stmt.v "box"
    ~iters:(List.init n (fun d -> Iter.v (String.make 1 "ijklm".[d]) ext.(d)))
    ~output:(Access.of_terms "O" ~depth:n [ [ 0 ] ])
    ~inputs:[ Access.of_terms "A" ~depth:n (List.init n (fun d -> [ d ])) ]

(* [[a, b]; [c, d]] as "a, b; c, d" *)
let show_rows m =
  String.concat "; "
    (List.map (fun r -> String.concat ", " (List.map string_of_int r)) m)

type det_verdict =
  | Det_agree  (** both answer, alike *)
  | Det_refused  (** [Transform] refuses on overflow *)
  | Det_unchecked  (** [Mat.det] overflows, [Transform] answers *)
  | Det_wrong of string

(* [Transform.check]'s verdict on [matrix] against [Mat.det]: wrong is a
   matrix accepted with another determinant than the rational one (0
   among them), or called singular where that determinant is not 0.
   [Transform] may refuse where [Mat.det] answers. *)
let check_rank matrix =
  let n = List.length matrix in
  let reference =
    try Some (Mat.det (Mat.of_int_rows matrix)) with Rat.Overflow -> None
  in
  let show () = show_rows matrix in
  match
    ( Transform.check
        (box_stmt (Array.make n 2))
        ~selected:(Array.init n Fun.id) ~matrix,
      reference )
  with
  | Error [ Transform.Determinant_overflow ], _ -> Det_refused
  | (Ok _ | Error [ Transform.Singular ]), None -> Det_unchecked
  | Ok t, Some d ->
    if Rat.equal d (Rat.of_int t.Transform.det) then Det_agree
    else
      Det_wrong
        (Printf.sprintf "[%s]: det %d, the rational determinant %s" (show ())
           t.Transform.det (Rat.to_string d))
  | Error [ Transform.Singular ], Some d ->
    if Rat.is_zero d then Det_agree
    else
      Det_wrong
        (Printf.sprintf "[%s]: called singular, the rational determinant %s"
           (show ()) (Rat.to_string d))
  | Error ps, _ ->
    Det_wrong
      (Printf.sprintf "[%s]: %s" (show ())
         (String.concat "; " (List.map Transform.describe ps)))

(* [Design.analyze] for every transform of one selection, its null spaces
   prepared once: the per-candidate analysis of the oracles below *)
let analyzer stmt ~selected =
  let preps =
    List.map (Reuse.prepare ~selected) (stmt.Stmt.inputs @ [ stmt.Stmt.output ])
  in
  fun t ->
    Design.of_dataflows t
      (List.map (fun p -> Reuse.classify_matrix p t.Transform.imatrix) preps)

let design_space ?(exclude_unicast = false) ?domains stmt =
  let selections = Search.selections stmt ~n:3 in
  let per_selection selected =
    let analyze = analyzer stmt ~selected in
    let local : (Dataflow.t list, unit) Hashtbl.t = Hashtbl.create 512 in
    List.filter_map
      (fun m ->
        let d = analyze (Transform.v stmt ~selected ~matrix:m) in
        let dfs = List.map (fun ti -> ti.Design.dataflow) d.Design.tensors in
        let excluded =
          List.exists
            (fun df ->
              df = Dataflow.Reuse_full
              || (exclude_unicast && df = Dataflow.Unicast))
            dfs
        in
        if excluded || Hashtbl.mem local dfs then None
        else begin
          Hashtbl.add local dfs ();
          Some d
        end)
      (Search.candidate_matrices ~n:3)
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  Tl_par.map ?domains ~label:"dse-enumerate" per_selection selections
  |> List.concat
  |> List.filter_map (fun d ->
      let s = Signature.signature d in
      if Hashtbl.mem seen s then None
      else begin
        Hashtbl.add seen s ();
        Some { Enumerate.design = d; signature = s }
      end)

let letter_matches ~loose (df : Dataflow.t) target =
  Dataflow.letter df = target
  || (loose
      &&
      match df with
      | Dataflow.Reuse2d Dataflow.Broadcast -> target = 'M'
      | Dataflow.Reuse2d (Dataflow.Multicast_stationary _) ->
        target = 'M' || target = 'T'
      | Dataflow.Reuse2d (Dataflow.Systolic_multicast _) ->
        target = 'S' || target = 'M'
      | _ -> false)

let matching_designs stmt name =
  match String.index_opt name '-' with
  | None -> invalid_arg "Oracle.matching_designs: no dash"
  | Some i -> (
    let label = String.sub name 0 i in
    let letters = String.sub name (i + 1) (String.length name - i - 1) in
    match Search.selection_of_label stmt label with
    | exception Not_found -> []
    | selected ->
      let analyze = analyzer stmt ~selected in
      let collect ~loose =
        List.filter_map
          (fun m ->
            let d = analyze (Transform.v stmt ~selected ~matrix:m) in
            let dfs = List.map (fun ti -> ti.Design.dataflow) d.Design.tensors in
            if
              List.length dfs = String.length letters
              && List.for_all2
                   (fun df ch -> letter_matches ~loose df ch)
                   dfs
                   (List.init (String.length letters) (String.get letters))
            then Some d
            else None)
          (Search.candidate_matrices ~n:(Array.length selected))
      in
      match collect ~loose:false with [] -> collect ~loose:true | l -> l)

let best_supported_design stmt (baseline : Baselines.t) =
  let candidates =
    List.concat_map
      (fun selected ->
        List.filter_map
          (fun m ->
            let d = Design.analyze (Transform.v stmt ~selected ~matrix:m) in
            if baseline.Baselines.supports d then Some d else None)
          (Search.candidate_matrices ~n:3))
      (Search.selections stmt ~n:3)
  in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun d ->
      let name = d.Design.name in
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    candidates
  |> List.fold_left
       (fun best d ->
         let r = Perf.evaluate d in
         match best with
         | None -> Some (d, r)
         | Some (_, rb) -> if r.Perf.cycles < rb.Perf.cycles then Some (d, r) else best)
       None

(* The set of PE coordinates the selected domain occupies, one [apply]
   per point of the box. *)
let space_footprint t =
  let ext = Transform.selected_extents t in
  let n = Array.length ext in
  let seen = Hashtbl.create 64 in
  let x = Array.make n 0 in
  let rec go d =
    if d = n then begin
      let p, _ = apply t x in
      if not (Hashtbl.mem seen p) then Hashtbl.add seen p ()
    end
    else
      for v = 0 to ext.(d) - 1 do
        x.(d) <- v;
        go (d + 1)
      done
  in
  go 0;
  seen

(* ------------------------------------------------------------------ *)
(* A schedule's materialised events, as the tests read them: all of them
   sorted by cycle (ties by PE), and whether a PE has any. *)

let events sched =
  let by_pe = Schedule.by_pe sched in
  let all = ref [] in
  for r = sched.Schedule.rows - 1 downto 0 do
    for c = sched.Schedule.cols - 1 downto 0 do
      all := List.rev_append (List.rev by_pe.(r).(c)) !all
    done
  done;
  List.stable_sort
    (fun (a : Schedule.event) (b : Schedule.event) ->
      compare (a.Schedule.cycle, a.Schedule.pe) (b.Schedule.cycle, b.Schedule.pe))
    !all

let pe_active sched (r, c) = (Schedule.by_pe sched).(r).(c) <> []

(* ------------------------------------------------------------------ *)
(* The perf model's reference paths, which [Perf.tile_statistics] and
   [Perf.evaluate] replaced: statistics counted over a materialised
   schedule with hash tables keyed by PE, cycle and tensor element, and
   an exhaustive tile search over them.  [evaluate_reference] returns the
   record [Perf.evaluate] returns, or raises the same exception. *)

module Geometry = Tl_templates.Geometry

(* dense integer keys: tensor indices, PE positions and cycles packed into
   single ints.  Packing that cannot represent its input raises instead
   of silently colliding. *)
let index_code idx =
  if Array.length idx > 4 then
    invalid_arg "Oracle.index_code: more than 4 index components";
  Array.fold_left
    (fun acc v ->
      let v1 = v + 1 in
      if v1 < 0 || v1 >= 16384 then
        invalid_arg "Oracle.index_code: index component out of range";
      (acc * 16384) + v1)
    7 idx

let pos_cycle_code (r, c) cycle =
  if r < 0 || r >= 0x20_0000 || c < 0 || c >= 0x20_0000 then
    invalid_arg "Oracle.pos_cycle_code: PE coordinate out of range";
  if cycle < 0 || cycle >= 0x10_0000 then
    invalid_arg "Oracle.pos_cycle_code: cycle out of range";
  (((cycle * 0x20_0000) + r) * 0x20_0000) + c

let entry_count_per_cycle sched by_pe access ~dp ~dt span offset count_into
    ~group =
  (* count reuse-chain entries per cycle, optionally grouped into lines *)
  let module S = Schedule in
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rows = sched.S.rows and cols = sched.S.cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      List.iter
        (fun ev ->
          Hashtbl.replace tbl
            (pos_cycle_code (r, c) ev.S.cycle)
            (index_code (Access.index access ev.S.x)))
        by_pe.(r).(c)
    done
  done;
  let groups : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      List.iter
        (fun ev ->
          let idx = index_code (Access.index access ev.S.x) in
          let pr, pc = (r - dp.(0), c - dp.(1)) in
          (* a predecessor slot off the grid or before cycle 0 holds no
             event: the chain starts here *)
          let is_entry =
            pr < 0 || pr >= rows || pc < 0 || pc >= cols || ev.S.cycle < dt
            ||
            match Hashtbl.find_opt tbl (pos_cycle_code (pr, pc) (ev.S.cycle - dt)) with
            | Some idx' -> idx' <> idx
            | None -> true
          in
          if is_entry then begin
            let t = ev.S.cycle - offset in
            if t >= 0 && t < span then
              match group with
              | None -> count_into.(t) <- count_into.(t) +. 1.
              | Some dir ->
                let rr, rc = Geometry.line_rep ~rows ~cols ~dir (r, c) in
                let key = pos_cycle_code (rr, rc) t in
                if not (Hashtbl.mem groups key) then begin
                  Hashtbl.add groups key ();
                  count_into.(t) <- count_into.(t) +. 1.
                end
          end)
        by_pe.(r).(c)
    done
  done

let tile_statistics sched =
  let module S = Schedule in
  let design = sched.S.design in
  let by_pe = S.by_pe sched in
  let rows = sched.S.rows and cols = sched.S.cols in
  let span = sched.S.span in
  let offset = sched.S.preload in
  let demand = Array.make span 0. in
  let active = Array.make span 0 in
  let active_pes = ref 0 in
  let active_pe_cycles = ref 0 in
  let busiest = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let evs = by_pe.(r).(c) in
      if evs <> [] then incr active_pes;
      busiest := max !busiest (List.length evs);
      List.iter
        (fun ev ->
          let t = ev.S.cycle - offset in
          if t >= 0 && t < span then begin
            active.(t) <- active.(t) + 1;
            incr active_pe_cycles
          end)
        evs
    done
  done;
  let per_cycle_distinct access ~group =
    (* distinct elements (or line-groups) touched per cycle; two-int keys
       so a widened index code cannot overflow when mixed with the cycle *)
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let counts = Array.make span 0. in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        List.iter
          (fun ev ->
            let t = ev.S.cycle - offset in
            if t >= 0 && t < span then begin
              let key =
                match group with
                | None -> (index_code (Access.index access ev.S.x), t)
                | Some dir ->
                  let rr, rc = Geometry.line_rep ~rows ~cols ~dir (r, c) in
                  (pos_cycle_code (rr, rc) t, -1)
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                counts.(t) <- counts.(t) +. 1.
              end
            end)
          by_pe.(r).(c)
      done
    done;
    counts
  in
  let per_tensor = ref [] in
  let current_tensor = ref "" in
  let credit total =
    per_tensor := (!current_tensor, total) :: !per_tensor
  in
  let add arr =
    credit (Array.fold_left ( +. ) 0. arr);
    Array.iteri (fun i v -> demand.(i) <- demand.(i) +. v) arr
  in
  let add_amortized total =
    credit total;
    let per = total /. float_of_int span in
    Array.iteri (fun i v -> demand.(i) <- v +. per) demand
  in
  let line_count dir =
    let reps = Hashtbl.create 16 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if by_pe.(r).(c) <> [] then
          Hashtbl.replace reps (Geometry.line_rep ~rows ~cols ~dir (r, c)) ()
      done
    done;
    Hashtbl.length reps
  in
  List.iter
    (fun (ti : Design.tensor_info) ->
      let access = ti.Design.access in
      current_tensor := access.Access.tensor;
      match ti.Design.dataflow with
      | Dataflow.Unicast ->
        add (per_cycle_distinct access ~group:None)
      | Dataflow.Stationary _ -> add_amortized (float_of_int !active_pes)
      | Dataflow.Systolic { dp; dt } ->
        let counts = Array.make span 0. in
        entry_count_per_cycle sched by_pe access ~dp ~dt span offset counts
          ~group:None;
        add counts
      | Dataflow.Multicast { dp } ->
        add (per_cycle_distinct access ~group:(Some dp))
      | Dataflow.Reuse2d Dataflow.Broadcast ->
        add
          (Array.map (fun a -> if a > 0 then 1. else 0.) active)
      | Dataflow.Reuse2d
          (Dataflow.Multicast_stationary { multicast }) ->
        add_amortized (float_of_int (line_count multicast))
      | Dataflow.Reuse2d
          (Dataflow.Systolic_multicast { multicast; systolic }) ->
        let counts = Array.make span 0. in
        entry_count_per_cycle sched by_pe access ~dp:systolic.Dataflow.dp
          ~dt:systolic.Dataflow.dt span offset counts
          ~group:(Some multicast);
        add counts
      | Dataflow.Reuse_full -> credit 1.)
    design.Design.tensors;
  { Perf.t_span = span;
    active_pes = !active_pes;
    active_pe_cycles = !active_pe_cycles;
    busiest_pe = !busiest;
    demand;
    per_tensor = List.rev !per_tensor }

(* tile statement: selected loops shrunk to the tile, unselected = 1 *)
let tile_stmt stmt selected tile =
  let iters =
    List.mapi
      (fun i (it : Iter.t) ->
        let ext =
          match Array.to_list selected |> List.mapi (fun k s -> (k, s))
                |> List.find_opt (fun (_, s) -> s = i)
          with
          | Some (k, _) -> tile.(k)
          | None -> 1
        in
        Iter.v it.Iter.name ext)
      stmt.Stmt.iters
  in
  Stmt.v stmt.Stmt.name ~iters ~output:stmt.Stmt.output
    ~inputs:stmt.Stmt.inputs

(* [design] over its tile statement, keeping its dataflows *)
let tile_design (design : Design.t) tile =
  let transform = design.Design.transform in
  let selected = transform.Transform.selected in
  let matrix =
    Array.to_list (Array.map Array.to_list transform.Transform.imatrix)
  in
  { design with
    Design.transform =
      Transform.v
        (tile_stmt transform.Transform.stmt selected tile)
        ~selected ~matrix }

let row_extent imatrix row tile =
  let n = Array.length tile in
  let acc = ref 1 in
  let r = imatrix.(row) in
  for j = 0 to n - 1 do
    acc := !acc + (abs r.(j) * (tile.(j) - 1))
  done;
  !acc

let candidate_sizes extent limit =
  let base =
    [ 1; 2; 3; 4; 5; 6; 7; 8; 10; 12; 14; 16; 24; 32; 48; 64; 96; 128;
      192; 256; 384; 512 ]
  in
  List.sort_uniq compare
    (List.filter (fun s -> s <= extent && s <= limit) (min extent limit :: base))

(* working-set estimate of a tile: sum of per-tensor bounding boxes *)
let tile_working_set (design : Design.t) selected tile =
  List.fold_left
    (fun acc (ti : Design.tensor_info) ->
      let am = ti.Design.access.Access.matrix in
      let per_dim = ref 1 in
      for i = 0 to Array.length am - 1 do
        let e = ref 1 in
        let row = am.(i) in
        Array.iteri
          (fun k s -> e := !e + (abs row.(s) * (tile.(k) - 1)))
          selected;
        per_dim := !per_dim * !e
      done;
      acc + !per_dim)
    0 design.Design.tensors

let evaluate_reference ?(config = Perf.default_config) (design : Design.t) =
  let transform = design.Design.transform in
  if Transform.space_dims transform <> 2 then
    invalid_arg "Perf_model.evaluate: only 2-D arrays";
  let stmt = transform.Transform.stmt in
  let selected = transform.Transform.selected in
  let im = transform.Transform.imatrix in
  let sel_ext = Transform.selected_extents transform in
  let n = Array.length selected in
  let unsel_product =
    List.fold_left ( * ) 1
      (List.map
         (fun (it : Iter.t) -> it.Iter.extent)
         (Transform.unselected_iters transform))
  in
  let limit = 512 in
  let spad_words =
    int_of_float (config.Perf.scratchpad_kbytes *. 1024.)
    / config.Perf.elem_bytes
  in
  let cand = Array.init n (fun j -> candidate_sizes sel_ext.(j) limit) in
  (* the best three feasible tiles as (est, tile, sel_passes, span), by
     estimate ascending, ties towards the later enumeration index *)
  let feasible = ref [] in
  let rec enum j tile =
    if j = n then begin
      let t = Array.of_list (List.rev tile) in
      if
        row_extent im 0 t <= config.Perf.rows
        && row_extent im 1 t <= config.Perf.cols
        && tile_working_set design selected t <= spad_words
      then begin
        let span = row_extent im 2 t in
        let sel_passes =
          Array.to_list
            (Array.mapi (fun j tj -> (sel_ext.(j) + tj - 1) / tj) t)
          |> List.fold_left ( * ) 1
        in
        let est = float_of_int (sel_passes * span) in
        feasible := (est, t, sel_passes, span) :: !feasible
      end
    end
    else List.iter (fun s -> enum (j + 1) (s :: tile)) cand.(j)
  in
  enum 0 [];
  let top =
    List.filteri (fun i _ -> i < 3)
      (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !feasible)
  in
  if top = [] then
    invalid_arg "Perf_model.evaluate: no feasible tile (array too small)";
  let capacity =
    config.Perf.bandwidth_gbps *. 1e9
    /. (config.Perf.freq_mhz *. 1e6)
    /. float_of_int config.Perf.elem_bytes
  in
  let evaluate_tile (_, tile, sel_passes, _) =
    let stats =
      tile_statistics
        (Schedule.v (tile_design design tile) ~rows:config.Perf.rows
           ~cols:config.Perf.cols)
    in
    let eff_span =
      Array.fold_left
        (fun acc d -> acc +. Stdlib.max 1. (d /. capacity))
        0. stats.Perf.demand
    in
    let total_passes = sel_passes * unsel_product in
    let tail = config.Perf.rows in
    let cycles = (float_of_int total_passes *. eff_span) +. float_of_int tail in
    (tile, sel_passes, total_passes, stats, eff_span, cycles)
  in
  let results = List.map evaluate_tile top in
  let best =
    List.fold_left
      (fun acc r ->
        match acc with
        | None -> Some r
        | Some (_, _, _, _, _, c) ->
          let _, _, _, _, _, c' = r in
          if c' < c then Some r else acc)
      None results
  in
  let tile, sel_passes, total_passes, stats, eff_span, cycles =
    match best with Some r -> r | None -> assert false
  in
  let busy = float_of_int stats.Perf.busiest_pe in
  let busy_eff =
    busy +. Stdlib.max 0. (eff_span -. float_of_int stats.Perf.t_span)
  in
  let pipelined_cycles =
    (float_of_int total_passes *. busy_eff)
    +. (float_of_int stats.Perf.t_span -. busy)
    +. float_of_int config.Perf.rows
  in
  let macs = Stmt.domain_size stmt in
  let array_size = float_of_int (config.Perf.rows * config.Perf.cols) in
  let utilization =
    float_of_int stats.Perf.active_pe_cycles
    /. (array_size *. float_of_int stats.Perf.t_span)
  in
  let normalized_perf = float_of_int macs /. (array_size *. cycles) in
  let bw_stall_factor = eff_span /. float_of_int stats.Perf.t_span in
  let words_per_cycle =
    Array.fold_left ( +. ) 0. stats.Perf.demand
    /. float_of_int stats.Perf.t_span
  in
  let runtime_us = cycles /. config.Perf.freq_mhz in
  let ops_per_mac = float_of_int (List.length stmt.Stmt.inputs + 1) in
  let gops = ops_per_mac *. float_of_int macs /. runtime_us /. 1e3 in
  { Perf.design_name = design.Design.name;
    tile;
    selected_passes = sel_passes;
    total_passes;
    span = stats.Perf.t_span;
    tail = config.Perf.rows;
    cycles;
    macs;
    utilization;
    normalized_perf;
    bw_stall_factor;
    words_per_cycle;
    runtime_us;
    gops;
    pipelined_cycles;
    pipelined_perf = float_of_int macs /. (array_size *. pipelined_cycles);
    traffic_words =
      List.map
        (fun (t, per_pass) -> (t, per_pass *. float_of_int total_passes))
        stats.Perf.per_tensor }

(* ------------------------------------------------------------------ *)
(* The fault campaign without pruning: every fault runs the full
   schedule on one reused tape simulator, flipped or forced as
   [Campaign] does, and is classified by its decision tree, written out
   here.  A run that never asserts [done] hangs (the watchdog); an
   output equal to [golden] is masked; a wrong output is detected by the
   [error_detected] port, else by a parity mismatch left in a hardened
   memory, else by the ABFT checksums, or else it is silent data
   corruption. *)
let campaign ?(abft = false) (acc : Accel.t) ~golden faults =
  let sim = Sim.create acc.Accel.circuit in
  let planned = Accel.planned_cycles acc in
  let parity_mismatch () =
    List.exists
      (fun (data, parity) ->
        let d = Sim.ram_contents sim data and p = Sim.ram_contents sim parity in
        let bad = ref false in
        Array.iteri (fun i v -> if Harden.parity_bit v <> p.(i) then bad := true) d;
        !bad)
      acc.Accel.hardening.Harden.parity_pairs
  in
  List.map
    (fun fault ->
      Sim.reset sim;
      Fault.install sim fault;
      for c = 0 to planned - 1 do
        if Fault.trigger_cycle fault = Some c then Fault.trigger sim fault;
        Sim.cycle sim
      done;
      let outcome, detected_by =
        if Sim.output sim "done" <> 1 then (Campaign.Hang, Some "watchdog")
        else
          let out = Accel.read_output acc sim in
          if Dense.equal out golden then (Campaign.Masked, None)
          else if
            match Sim.output sim "error_detected" with
            | v -> v <> 0
            | exception Not_found -> false
          then (Campaign.Detected, Some "parity")
          else if parity_mismatch () then (Campaign.Detected, Some "parity-sweep")
          else if abft && not (Abft.check ~acc_width:acc.Accel.acc_width out)
          then (Campaign.Detected, Some "abft")
          else (Campaign.Sdc, None)
      in
      { Campaign.fault; outcome; detected_by })
    faults
