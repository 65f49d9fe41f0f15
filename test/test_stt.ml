(* Space-time transformation analysis: the paper's §II, §IV and Table I. *)

open Tensorlib

let gemm = Workloads.gemm ~m:4 ~n:4 ~k:4

let fig1b =
  (* Fig. 1(b): (i,j,k) -> (i, j, i+j+k) *)
  Transform.by_names gemm [ "m"; "n"; "k" ]
    ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ]

let test_transform_validity () =
  Alcotest.check_raises "singular matrix rejected"
    (Invalid_argument "Transform.v: STT matrix must be full rank (one-to-one)")
    (fun () ->
      ignore
        (Transform.by_names gemm [ "m"; "n"; "k" ]
           ~matrix:[ [ 1; 0; 0 ]; [ 1; 0; 0 ]; [ 0; 0; 1 ] ]));
  Alcotest.check_raises "duplicate selection"
    (Invalid_argument "Transform.v: duplicate selected iterator") (fun () ->
      ignore
        (Transform.v gemm ~selected:[| 0; 0; 1 |]
           ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]))

let test_fig1b_mapping () =
  (* paper: i=1, j=2, k=3 executes at PE (1,2) at cycle 6 *)
  let p, t = Oracle.apply fig1b [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "PE" [| 1; 2 |] p;
  Alcotest.(check int) "time" 6 t;
  (* inverse recovers the iteration *)
  let x = Oracle.inverse_apply fig1b [| 1; 2 |] 6 in
  Alcotest.(check (array int)) "inverse" [| 1; 2; 3 |] (Vec.to_integer x |> fun _ ->
    Array.map Rat.to_int x)

let test_fig1b_dataflows () =
  (* paper §IV: A[i,k] under Fig 1(b) is systolic with (dp,dt) = (0,1,1) *)
  let d = Design.analyze fig1b in
  (match (Design.find_tensor d "A").Design.dataflow with
   | Dataflow.Systolic { dp; dt } ->
     Alcotest.(check (array int)) "A dp" [| 0; 1 |] dp;
     Alcotest.(check int) "A dt" 1 dt
   | df -> Alcotest.failf "A: expected systolic, got %s" (Dataflow.to_string df));
  (match (Design.find_tensor d "B").Design.dataflow with
   | Dataflow.Systolic { dp; dt } ->
     Alcotest.(check (array int)) "B dp" [| 1; 0 |] dp;
     Alcotest.(check int) "B dt" 1 dt
   | df -> Alcotest.failf "B: expected systolic, got %s" (Dataflow.to_string df));
  (match (Design.find_tensor d "C").Design.dataflow with
   | Dataflow.Stationary { dt } -> Alcotest.(check int) "C dt" 1 dt
   | df ->
     Alcotest.failf "C: expected stationary, got %s" (Dataflow.to_string df));
  Alcotest.(check string) "name" "MNK-SST" d.Design.name

let test_multicast_classification () =
  (* space = (n,k), time = m: A[m,k] reuse dir n -> spatial => multicast *)
  let t =
    Transform.by_names gemm [ "m"; "n"; "k" ]
      ~matrix:[ [ 0; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ]
  in
  let d = Design.analyze t in
  (match (Design.find_tensor d "A").Design.dataflow with
   | Dataflow.Multicast { dp } ->
     Alcotest.(check (array int)) "A multicast dir" [| 1; 0 |] dp
   | df -> Alcotest.failf "A: expected multicast, got %s" (Dataflow.to_string df));
  (* output C has reuse dir k which is spatial too: reduction tree *)
  (match (Design.find_tensor d "C").Design.dataflow with
   | Dataflow.Multicast { dp } ->
     Alcotest.(check (array int)) "C tree dir" [| 0; 1 |] dp
   | df -> Alcotest.failf "C: expected multicast, got %s" (Dataflow.to_string df));
  Alcotest.(check string) "letters" "MTM" (Design.letters d)

let test_unicast_classification () =
  (* Batched-GEMV A[m,k,n] depends on all three iterators: rank-0 reuse *)
  let bg = Workloads.batched_gemv ~m:4 ~n:4 ~k:4 in
  let t =
    Transform.by_names bg [ "m"; "n"; "k" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]
  in
  let d = Design.analyze t in
  Alcotest.(check bool) "A unicast" true
    ((Design.find_tensor d "A").Design.dataflow = Dataflow.Unicast)

let test_2d_reuse_classification () =
  (* Conv2D weight B[k,c,p,q] under XYP selection has a 2-D reuse plane *)
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let t =
    Transform.by_names conv [ "x"; "y"; "p" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]
  in
  let d = Design.analyze t in
  let b = (Design.find_tensor d "B").Design.dataflow in
  Alcotest.(check int) "B reuse is 2-D" 2 (Dataflow.subspace_dim b);
  Alcotest.(check char) "B letter" 'B' (Dataflow.letter b)

let test_broadcast_classification () =
  (* both null directions spatial: element broadcast to a plane *)
  let dw = Workloads.depthwise_conv ~k:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  (* select (x,y,p); B[k,p,q] restricted depends only on p; choose T with
     x,y spatial and p temporal-but... here x->p1, y->p0, p->t so the reuse
     plane {e_x,e_y} maps to {(0,1,0),(1,0,0)}: vertical to t => broadcast *)
  let t =
    Transform.by_names dw [ "x"; "y"; "p" ]
      ~matrix:[ [ 0; 1; 0 ]; [ 1; 0; 0 ]; [ 0; 0; 1 ] ]
  in
  let d = Design.analyze t in
  (match (Design.find_tensor d "B").Design.dataflow with
   | Dataflow.Reuse2d Dataflow.Broadcast -> ()
   | df -> Alcotest.failf "expected broadcast, got %s" (Dataflow.to_string df))

let test_multicast_stationary_classification () =
  (* GEMM with B[n,k] ignoring the selected m loop... use depthwise: plane
     containing the time axis *)
  let dw = Workloads.depthwise_conv ~k:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  (* select (x,y,p); T: p0=y+p, p1=p, t=x.  B depends on p only; null plane
     {e_x, e_y} maps to {(0,0,1)=e_t, (1,0,0)}: contains the t axis *)
  let t =
    Transform.by_names dw [ "x"; "y"; "p" ]
      ~matrix:[ [ 0; 1; 1 ]; [ 0; 0; 1 ]; [ 1; 0; 0 ] ]
  in
  let d = Design.analyze t in
  (match (Design.find_tensor d "B").Design.dataflow with
   | Dataflow.Reuse2d (Dataflow.Multicast_stationary { multicast }) ->
     Alcotest.(check (array int)) "multicast dir" [| 1; 0 |] multicast
   | df ->
     Alcotest.failf "expected multicast+stationary, got %s"
       (Dataflow.to_string df))

let test_projector_matches_nullspace () =
  (* Eq. 3 projector image = T . null(A) for every GEMM tensor *)
  let d = Design.analyze fig1b in
  List.iter
    (fun (ti : Design.tensor_info) ->
      let p = Oracle.projector fig1b ti.Design.access in
      let basis = Oracle.reuse_basis fig1b ti.Design.access in
      (* projector is idempotent *)
      Alcotest.(check bool) "P^2 = P" true (Mat.equal (Mat.mul p p) p);
      (* image of the projector has the same rank as the reuse space *)
      Alcotest.(check int)
        ("rank for " ^ ti.Design.access.Access.tensor)
        (List.length basis) (Mat.rank p);
      (* each basis vector is fixed by the projector *)
      List.iter
        (fun v ->
          Alcotest.(check bool) "P v = v" true
            (Vec.equal (Mat.mul_vec p v) v))
        basis)
    d.Design.tensors

let test_time_bounds () =
  let lo, hi =
    Transform.row_bounds fig1b (Transform.selected_extents fig1b) 2
  in
  Alcotest.(check int) "min time" 0 lo;
  Alcotest.(check int) "max time" 9 hi;
  (* negative schedule coefficients give a negative lower bound *)
  let t =
    Transform.by_names gemm [ "m"; "n"; "k" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ -1; 0; 1 ] ]
  in
  let lo, hi = Transform.row_bounds t (Transform.selected_extents t) 2 in
  Alcotest.(check int) "min time negative" (-3) lo;
  Alcotest.(check int) "max time" 3 hi

let test_space_footprint () =
  let fp = Oracle.space_footprint fig1b in
  Alcotest.(check int) "footprint 4x4" 16 (Hashtbl.length fp)

(* the closed-form range of each space row is the bounding box of the
   footprint enumerated point by point, on every candidate matrix of every
   selection of three Table-II workloads with distinct extents *)
let test_row_bounds_footprint () =
  List.iter
    (fun stmt ->
      List.iter
        (fun selected ->
          List.iter
            (fun matrix ->
              let t = Transform.v stmt ~selected ~matrix in
              let fp = Oracle.space_footprint t in
              for i = 0 to Transform.space_dims t - 1 do
                let lo, hi =
                  Hashtbl.fold
                    (fun p () (lo, hi) -> (min lo p.(i), max hi p.(i)))
                    fp (max_int, min_int)
                in
                if
                  (lo, hi)
                  <> Transform.row_bounds t (Transform.selected_extents t) i
                then
                  Alcotest.failf "%s %s row %d: enumerated [%d, %d]"
                    stmt.Stmt.name (Transform.selection_label t) i lo hi
              done)
            (Search.candidate_matrices ~n:3))
        (Search.selections stmt ~n:3))
    [ Workloads.gemm ~m:2 ~n:4 ~k:3;
      Workloads.batched_gemv ~m:3 ~n:2 ~k:4;
      Workloads.mttkrp ~i:2 ~j:3 ~k:4 ~l:2 ]

let test_selection_label () =
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let t =
    Transform.by_names conv [ "k"; "c"; "x" ]
      ~matrix:[ [ 1; 0; 0 ]; [ 0; 0; 1 ]; [ 0; 1; 0 ] ]
  in
  Alcotest.(check string) "label" "KCX" (Transform.selection_label t)

let test_search_named_designs () =
  List.iter
    (fun name ->
      match Search.find_design gemm name with
      | Some d -> Alcotest.(check string) name name d.Design.name
      | None -> Alcotest.failf "%s not found" name)
    [ "MNK-SST"; "MNK-STS"; "MNK-MTM"; "MNK-MMT"; "MNK-SSS" ];
  (* unrealisable combination: GEMM cannot be all-stationary *)
  Alcotest.(check bool) "TTT unrealisable" true
    (Search.find_design gemm "MNK-TTT" = None)

let test_search_loose_matching () =
  (* Conv2D XYP-MST relies on loose matching of 2-D reuse letters *)
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  match Search.find_design conv "XYP-MST" with
  | Some d ->
    Alcotest.(check bool) "B tensor has 2-D reuse" true
      (Dataflow.subspace_dim (Design.find_tensor d "B").Design.dataflow >= 2)
  | None -> Alcotest.fail "XYP-MST should resolve loosely"

let test_all_designs_gemm () =
  let all = Search.all_designs ~selection:[| 0; 1; 2 |] gemm in
  Alcotest.(check int) "19 letter-distinct GEMM dataflows" 19
    (List.length all);
  (* no design name repeats *)
  let names = List.map fst all in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_candidate_matrices () =
  let ms = Search.candidate_matrices ~n:2 in
  (* full-rank 2x2 matrices over {-1,0,1}: 48 of them *)
  Alcotest.(check int) "2x2 count" 48 (List.length ms);
  List.iter
    (fun m ->
      let det = Mat.det (Mat.of_int_rows m) in
      Alcotest.(check bool) "full rank" false (Rat.is_zero det))
    ms

let test_netlist_supported () =
  let d = Design.analyze fig1b in
  Alcotest.(check bool) "SST supported" true (Design.netlist_supported d)

(* ---------- properties ---------- *)

let arbitrary_transform =
  let gen =
    QCheck.Gen.(
      let cell = int_range (-1) 1 in
      let rec full_rank () =
        array_size (return 9) cell >>= fun cells ->
        let m = List.init 3 (fun i -> List.init 3 (fun j -> cells.((i * 3) + j))) in
        if Rat.is_zero (Mat.det (Mat.of_int_rows m)) then full_rank ()
        else return m
      in
      full_rank ())
  in
  QCheck.make
    ~print:(fun m ->
      String.concat ";"
        (List.map (fun r -> String.concat "," (List.map string_of_int r)) m))
    gen

(* step one reuse vector in space-time: must land on the same element *)
let check_step dp dt access t ext points =
  List.for_all
    (fun x1 ->
      let p1, t1 = Oracle.apply t x1 in
      let p2 = [| p1.(0) + dp.(0); p1.(1) + dp.(1) |] in
      let x2r = Oracle.inverse_apply t p2 (t1 + dt) in
      if Array.for_all Rat.is_integer x2r then begin
        let x2 = Array.map Rat.to_int x2r in
        let inb = Array.for_all2 (fun v e -> v >= 0 && v < e) x2 ext in
        (not inb) || Oracle.reuses_same_element t access x1 x2
      end
      else true)
    points

(* The classification must agree with brute-force reuse enumeration: for a
   tensor classified with reuse vector (dp,dt), the iterations mapping to
   (p,t) and (p+dp,t+dt) access the same element; unicast tensors never
   share an element between distinct iterations. *)
let prop_classification_sound =
  QCheck.Test.make ~name:"Table-I classification vs brute force" ~count:60
    arbitrary_transform (fun m ->
      let t = Transform.by_names gemm [ "m"; "n"; "k" ] ~matrix:m in
      let d = Design.analyze t in
      let points = ref [] in
      let ext = Transform.selected_extents t in
      for i = 0 to ext.(0) - 1 do
        for j = 0 to ext.(1) - 1 do
          for k = 0 to ext.(2) - 1 do
            points := [| i; j; k |] :: !points
          done
        done
      done;
      List.for_all
        (fun (ti : Design.tensor_info) ->
          let access = ti.Design.access in
          match ti.Design.dataflow with
          | Dataflow.Unicast ->
            List.for_all
              (fun x1 ->
                List.for_all
                  (fun x2 ->
                    x1 == x2 || not (Oracle.reuses_same_element t access x1 x2))
                  !points)
              !points
          | Dataflow.Systolic { dp; dt } ->
            check_step dp dt access t ext !points
          | Dataflow.Multicast { dp } ->
            check_step dp 0 access t ext !points
          | Dataflow.Stationary { dt } ->
            check_step [| 0; 0 |] dt access t ext !points
          | Dataflow.Reuse2d _ | Dataflow.Reuse_full -> true)
        d.Design.tensors)

(* the closed-form reduction against the unit-step descent it replaced *)
let prop_reduce_closed_form =
  QCheck.Test.make ~name:"closed-form reduction = unit-step descent"
    ~count:1000
    QCheck.(
      pair
        (pair (int_range (-1000) 1000) (int_range (-1000) 1000))
        (pair (int_range (-40) 40) (int_range (-40) 40)))
    (fun ((d0, d1), (m0, m1)) ->
      QCheck.assume ((m0, m1) <> (0, 0));
      let multicast = [| m0; m1 |] and dp = [| d0; d1 |] in
      Reuse.reduce_against ~multicast dp
      = fst (Oracle.reduce_against ~multicast (dp, 0)))

(* the descent would take 2^61 steps here *)
let test_reduce_far () =
  Alcotest.(check (array int)) "2^61 multiples removed" [| 0; 3 |]
    (Reuse.reduce_against ~multicast:[| 1; 1 |]
       [| 1 lsl 61; (1 lsl 61) + 3 |]);
  Alcotest.(check (array int)) "0 when no multiple shortens it" [| 5; -4 |]
    (Reuse.reduce_against ~multicast:[| 1; 1 |] [| 5; -4 |]);
  Alcotest.check_raises "min_int refused"
    (Reuse.Overflow "Reuse.reduce_against overflows a native int")
    (fun () ->
      ignore (Reuse.reduce_against ~multicast:[| 1; 0 |] [| min_int; 0 |]))

let prop_one_to_one =
  QCheck.Test.make ~name:"full-rank STT is one-to-one on the domain"
    ~count:60 arbitrary_transform (fun m ->
      let t = Transform.by_names gemm [ "m"; "n"; "k" ] ~matrix:m in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      let ext = Transform.selected_extents t in
      for i = 0 to ext.(0) - 1 do
        for j = 0 to ext.(1) - 1 do
          for k = 0 to ext.(2) - 1 do
            let p, tm = Oracle.apply t [| i; j; k |] in
            let key = (p.(0), p.(1), tm) in
            if Hashtbl.mem seen key then ok := false;
            Hashtbl.add seen key ()
          done
        done
      done;
      !ok)

let prop_reuse_dim_complements_rank =
  QCheck.Test.make ~name:"reuse dim = 3 - rank(A_sel)" ~count:60
    arbitrary_transform (fun m ->
      let t = Transform.by_names gemm [ "m"; "n"; "k" ] ~matrix:m in
      let d = Design.analyze t in
      List.for_all
        (fun (ti : Design.tensor_info) ->
          let a_sel = Oracle.restricted_access t ti.Design.access in
          Dataflow.subspace_dim ti.Design.dataflow = 3 - Mat.rank a_sel)
        d.Design.tensors)

(* ---------- the checked integer facts about T ---------- *)

(* the closed forms, the elimination with and without a row swap, and
   refusals where the determinant or a term of it passes max_int *)
let test_checked_det () =
  let det m = Transform.det (Array.of_list (List.map Array.of_list m)) in
  Alcotest.(check int) "[[min_int, -2]; [1, 0]]" 2
    (det [ [ min_int; -2 ]; [ 1; 0 ] ]);
  Alcotest.(check int) "a 3x3 entry of (2^63 + 1) / 3" 3074457345618258603
    (det [ [ 3074457345618258603; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 1 ] ]);
  Alcotest.(check int) "4x4, no swap" (-72)
    (det
       [ [ 2; 1; 0; 3 ]; [ 1; 3; 2; 0 ]; [ 0; 1; 4; 1 ]; [ 3; 0; 1; 2 ] ]);
  Alcotest.(check int) "4x4, a zero pivot swapped" (-1)
    (det [ [ 0; 1; 0; 0 ]; [ 1; 0; 0; 0 ]; [ 0; 0; 1; 0 ]; [ 0; 0; 0; 1 ] ]);
  Alcotest.(check int) "5x5, singular" 0
    (det
       [ [ 1; 2; 3; 4; 5 ]; [ 0; 0; 1; 0; 0 ]; [ 2; 4; 6; 8; 10 ];
         [ 0; 1; 0; 0; 0 ]; [ 0; 0; 0; 0; 1 ] ]);
  List.iter
    (fun m ->
      match det m with
      | d ->
        Alcotest.failf "[%s]: det %d, expected a refusal" (Oracle.show_rows m)
          d
      | exception Transform.Overflow _ -> ())
    [ [ [ 1 lsl 31; 0; 0 ]; [ 0; 1 lsl 32; 0 ]; [ 0; 0; 1 ] ];
      [ [ 1 lsl 31; 0; 0; 0 ]; [ 0; 1 lsl 32; 0; 0 ]; [ 0; 0; 1; 0 ];
        [ 0; 0; 0; 1 ] ];
      [ [ min_int; 0 ]; [ 0; -1 ] ] ]

(* Transform's verdict and determinant against [Mat.det], wherever both
   answer; the checked one may refuse where the rational one answers *)
let prop_checked_det =
  QCheck.Test.make ~name:"checked det = Mat.det where both answer"
    ~count:3000
    (QCheck.make ~print:Oracle.show_rows (fun rng ->
         Oracle.boundary_matrix rng))
    (fun m ->
      match Oracle.check_rank m with
      | Oracle.Det_wrong msg -> QCheck.Test.fail_report msg
      | Oracle.Det_agree | Oracle.Det_refused | Oracle.Det_unchecked -> true)

let transform_of ?ext m =
  let n = List.length m in
  let ext = Option.value ext ~default:(Array.make n 2) in
  Transform.check (Oracle.box_stmt ext) ~selected:(Array.init n Fun.id)
    ~matrix:m

let prop_adjugate =
  QCheck.Test.make ~name:"T adj T = det T I wherever it fits" ~count:2000
    (QCheck.make ~print:Oracle.show_rows (fun rng ->
         Oracle.boundary_matrix ~n:(2 + Random.State.int rng 2) rng))
    (fun m ->
      match transform_of m with
      | Error _ -> true
      | Ok t -> (
        match Transform.adjugate t with
        | exception Transform.Overflow _ -> true
        | adj, det ->
          let tm = t.Transform.imatrix in
          let n = Array.length tm in
          (* entry [(i, j)] of [T · adj T], or [Rat.Overflow] *)
          let product i j =
            let acc = ref 0 in
            for k = 0 to n - 1 do
              acc := Rat.add_check !acc (Rat.mul_check tm.(i).(k) adj.(k).(j))
            done;
            !acc
          in
          let all f = List.for_all f (List.init n Fun.id) in
          all (fun i ->
              all (fun j ->
                  match product i j with
                  | p -> p = if i = j then det else 0
                  | exception Rat.Overflow -> true))))

(* On small entries and extents, every space row's bounds are the
   bounding box of the enumerated footprint, and the time row's the range
   of the enumerated cycles. *)
let prop_row_bounds_small =
  QCheck.Test.make ~name:"row bounds = footprint on small extents" ~count:300
    QCheck.(
      pair
        (int_range 2 4)
        (pair
           (array_of_size (Gen.return 16) (int_range (-3) 3))
           (array_of_size (Gen.return 4) (int_range 1 4))))
    (fun (n, (cells, ext)) ->
      let m =
        List.init n (fun i -> List.init n (fun j -> cells.((i * n) + j)))
      in
      match transform_of ~ext:(Array.sub ext 0 n) m with
      | Error _ -> true
      | Ok t ->
        let fp = Oracle.space_footprint t in
        let space i =
          Hashtbl.fold
            (fun p () (lo, hi) -> (min lo p.(i), max hi p.(i)))
            fp (max_int, min_int)
        in
        let times = ref (max_int, min_int) in
        let x = Array.make n 0 in
        let rec walk d =
          if d = n then begin
            let _, c = Oracle.apply t x in
            let lo, hi = !times in
            times := (min lo c, max hi c)
          end
          else
            for v = 0 to ext.(d) - 1 do
              x.(d) <- v;
              walk (d + 1)
            done
        in
        walk 0;
        List.for_all
          (fun i ->
            Transform.row_bounds t (Transform.selected_extents t) i
            = if i < n - 1 then space i else !times)
          (List.init n Fun.id))

(* Exact integers as [h * 2^32 + l] with [0 <= l < 2^32]: wide enough for
   the bounds of a row of edge entries times extents up to 2^20.  One
   fits a native int iff [-2^30 <= h < 2^30]. *)
let low = (1 lsl 32) - 1
let wide_mul c k =
  let l = (c land low) * k in
  (((c asr 32) * k) + (l asr 32), l land low)
let wide_add (h1, l1) (h2, l2) =
  let l = l1 + l2 in
  (h1 + h2 + (l asr 32), l land low)
let wide_neg (h, l) = if l = 0 then (-h, 0) else (-h - 1, low + 1 - l)

(* Edge entries with extents up to 2^20 + 1: [row_bounds] answers the exact
   bounds where the exact span fits, and refuses where it passes
   [max_int].  A unit upper-triangular matrix with shuffled rows keeps
   [det T = ±1], so most draws are transforms. *)
let prop_row_bounds_refusal =
  QCheck.Test.make ~name:"row bounds refuse past max_int" ~count:2000
    (QCheck.make
       ~print:(fun (m, ext) ->
         Printf.sprintf "[%s] over %s" (Oracle.show_rows m)
           (String.concat "x" (Array.to_list (Array.map string_of_int ext))))
       (fun rng ->
         let int = Random.State.int rng in
         let n = 2 + int 3 in
         let m =
           if int 2 = 0 then Oracle.boundary_matrix ~n rng
           else begin
             let edges = Oracle.boundary_values in
             let edge () = edges.(int (Array.length edges)) in
             let rows =
               Array.init n (fun i ->
                   List.init n (fun j ->
                       if j = i then 1 else if j > i then edge () else 0))
             in
             for i = n - 1 downto 1 do
               let j = int (i + 1) in
               let r = rows.(i) in
               rows.(i) <- rows.(j);
               rows.(j) <- r
             done;
             Array.to_list rows
           end
         in
         (* up to two extents up to 2^20 + 1, so the domain fits *)
         let ext = Array.init n (fun _ -> 1 + int 4) in
         for _ = 1 to 2 do
           if int 2 = 0 then ext.(int n) <- 1 + (1 lsl int 21)
         done;
         (m, ext)))
    (fun (m, ext) ->
      let n = List.length m in
      match transform_of ~ext m with
      | Error _ -> true
      | Ok t ->
        List.for_all
          (fun i ->
            let lo, hi =
              List.fold_left
                (fun (lo, hi) (j, c) ->
                  let w = wide_mul c (ext.(j) - 1) in
                  if fst w < 0 then (wide_add lo w, hi)
                  else (lo, wide_add hi w))
                ((0, 0), (0, 0))
                (List.mapi (fun j c -> (j, c)) (List.nth m i))
            in
            let span_h, _ = wide_add (wide_add hi (wide_neg lo)) (0, 1) in
            let int_of (h, l) = (h lsl 32) + l in
            match
              Transform.row_bounds t (Transform.selected_extents t) i
            with
            | bounds -> span_h < 1 lsl 30 && bounds = (int_of lo, int_of hi)
            | exception Transform.Overflow _ -> span_h >= 1 lsl 30)
          (List.init n Fun.id))

let suite =
  [ Alcotest.test_case "transform validity" `Quick test_transform_validity;
    Alcotest.test_case "fig 1(b) mapping" `Quick test_fig1b_mapping;
    Alcotest.test_case "fig 1(b) dataflows" `Quick test_fig1b_dataflows;
    Alcotest.test_case "multicast classification" `Quick
      test_multicast_classification;
    Alcotest.test_case "unicast classification" `Quick
      test_unicast_classification;
    Alcotest.test_case "2-D reuse classification" `Quick
      test_2d_reuse_classification;
    Alcotest.test_case "broadcast classification" `Quick
      test_broadcast_classification;
    Alcotest.test_case "multicast+stationary classification" `Quick
      test_multicast_stationary_classification;
    Alcotest.test_case "Eq.3 projector" `Quick test_projector_matches_nullspace;
    Alcotest.test_case "time bounds" `Quick test_time_bounds;
    Alcotest.test_case "space footprint" `Quick test_space_footprint;
    Alcotest.test_case "selection label" `Quick test_selection_label;
    Alcotest.test_case "named design search" `Quick test_search_named_designs;
    Alcotest.test_case "loose letter matching" `Quick
      test_search_loose_matching;
    Alcotest.test_case "GEMM letter space" `Quick test_all_designs_gemm;
    Alcotest.test_case "candidate matrices" `Quick test_candidate_matrices;
    Alcotest.test_case "netlist support flag" `Quick test_netlist_supported ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_classification_sound; prop_one_to_one;
        prop_reuse_dim_complements_rank; prop_reduce_closed_form ]
  @ [ Alcotest.test_case "row bounds = enumerated footprint" `Quick
        test_row_bounds_footprint;
      Alcotest.test_case "closed-form reduction, far and refused" `Quick
        test_reduce_far;
      Alcotest.test_case "checked determinant" `Quick test_checked_det ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_checked_det; prop_adjugate; prop_row_bounds_small;
        prop_row_bounds_refusal ]
