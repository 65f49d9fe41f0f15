let gemm ~m ~n ~k =
  let iters = [ Iter.v "m" m; Iter.v "n" n; Iter.v "k" k ] in
  Stmt.v "GEMM" ~iters
    ~output:(Access.of_terms "C" ~depth:3 [ [ 0 ]; [ 1 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:3 [ [ 0 ]; [ 2 ] ];
        Access.of_terms "B" ~depth:3 [ [ 1 ]; [ 2 ] ] ]

let batched_gemv ~m ~n ~k =
  let iters = [ Iter.v "m" m; Iter.v "n" n; Iter.v "k" k ] in
  Stmt.v "Batched-GEMV" ~iters
    ~output:(Access.of_terms "C" ~depth:3 [ [ 0 ]; [ 1 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:3 [ [ 0 ]; [ 2 ]; [ 1 ] ];
        Access.of_terms "B" ~depth:3 [ [ 0 ]; [ 2 ] ] ]

let conv2d ~k ~c ~y ~x ~p ~q =
  let iters =
    [ Iter.v "k" k; Iter.v "c" c; Iter.v "y" y; Iter.v "x" x;
      Iter.v "p" p; Iter.v "q" q ]
  in
  Stmt.v "Conv2D" ~iters
    ~output:(Access.of_terms "C" ~depth:6 [ [ 0 ]; [ 2 ]; [ 3 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:6 [ [ 1 ]; [ 2; 4 ]; [ 3; 5 ] ];
        Access.of_terms "B" ~depth:6 [ [ 0 ]; [ 1 ]; [ 4 ]; [ 5 ] ] ]

let depthwise_conv ~k ~y ~x ~p ~q =
  let iters =
    [ Iter.v "k" k; Iter.v "y" y; Iter.v "x" x; Iter.v "p" p; Iter.v "q" q ]
  in
  Stmt.v "Depthwise-Conv" ~iters
    ~output:(Access.of_terms "C" ~depth:5 [ [ 0 ]; [ 1 ]; [ 2 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:5 [ [ 0 ]; [ 1; 3 ]; [ 2; 4 ] ];
        Access.of_terms "B" ~depth:5 [ [ 0 ]; [ 3 ]; [ 4 ] ] ]

let mttkrp ~i ~j ~k ~l =
  let iters = [ Iter.v "i" i; Iter.v "j" j; Iter.v "k" k; Iter.v "l" l ] in
  Stmt.v "MTTKRP" ~iters
    ~output:(Access.of_terms "D" ~depth:4 [ [ 0 ]; [ 1 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:4 [ [ 0 ]; [ 2 ]; [ 3 ] ];
        Access.of_terms "B" ~depth:4 [ [ 2 ]; [ 1 ] ];
        Access.of_terms "C" ~depth:4 [ [ 3 ]; [ 1 ] ] ]

let ttmc ~i ~j ~k ~l ~m =
  let iters =
    [ Iter.v "i" i; Iter.v "j" j; Iter.v "k" k; Iter.v "l" l; Iter.v "m" m ]
  in
  Stmt.v "TTMc" ~iters
    ~output:(Access.of_terms "D" ~depth:5 [ [ 0 ]; [ 1 ]; [ 2 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:5 [ [ 0 ]; [ 3 ]; [ 4 ] ];
        Access.of_terms "B" ~depth:5 [ [ 3 ]; [ 1 ] ];
        Access.of_terms "C" ~depth:5 [ [ 4 ]; [ 2 ] ] ]

let conv2d_strided ~stride ~k ~c ~y ~x ~p ~q =
  let iters =
    [ Iter.v "k" k; Iter.v "c" c; Iter.v "y" y; Iter.v "x" x;
      Iter.v "p" p; Iter.v "q" q ]
  in
  (* of_terms adds 1 per listed position, so repeating y encodes stride*y *)
  let rep n j = List.init n (fun _ -> j) in
  Stmt.v "Conv2D-strided" ~iters
    ~output:(Access.of_terms "C" ~depth:6 [ [ 0 ]; [ 2 ]; [ 3 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:6
          [ [ 1 ]; rep stride 2 @ [ 4 ]; rep stride 3 @ [ 5 ] ];
        Access.of_terms "B" ~depth:6 [ [ 0 ]; [ 1 ]; [ 4 ]; [ 5 ] ] ]

let pointwise_conv ~k ~c ~y ~x =
  let iters = [ Iter.v "k" k; Iter.v "c" c; Iter.v "y" y; Iter.v "x" x ] in
  Stmt.v "Pointwise-Conv" ~iters
    ~output:(Access.of_terms "C" ~depth:4 [ [ 0 ]; [ 2 ]; [ 3 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:4 [ [ 1 ]; [ 2 ]; [ 3 ] ];
        Access.of_terms "B" ~depth:4 [ [ 0 ]; [ 1 ] ] ]

let gemv ~m ~k =
  let iters = [ Iter.v "m" m; Iter.v "k" k ] in
  Stmt.v "GEMV" ~iters
    ~output:(Access.of_terms "y" ~depth:2 [ [ 0 ] ])
    ~inputs:
      [ Access.of_terms "A" ~depth:2 [ [ 0 ]; [ 1 ] ];
        Access.of_terms "x" ~depth:2 [ [ 1 ] ] ]

let resnet_layer2 = conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3
let resnet_layer5 = conv2d ~k:512 ~c:512 ~y:7 ~x:7 ~p:3 ~q:3

(* ---------------------------------------------------------------- *)
(* Whole networks: named layer lists for the network sweep.  Names are
   per-layer (conv3_1, ffn_up, ...); many layers share one shape, and the
   sweep dedups them by canonical statement fingerprint — ResNet-18's 21
   layers reduce to 12 unique shapes, BERT-base's 8 to 5. *)

let resnet18 () =
  let block prefix ~k ~y =
    (* one residual stage: entry 3x3 stride-2 + 1x1 downsample projection,
       then three plain 3x3 convs at the stage's resolution *)
    [ (prefix ^ "_1a", conv2d_strided ~stride:2 ~k ~c:(k / 2) ~y ~x:y ~p:3 ~q:3);
      (prefix ^ "_proj", conv2d_strided ~stride:2 ~k ~c:(k / 2) ~y ~x:y ~p:1 ~q:1);
      (prefix ^ "_1b", conv2d ~k ~c:k ~y ~x:y ~p:3 ~q:3);
      (prefix ^ "_2a", conv2d ~k ~c:k ~y ~x:y ~p:3 ~q:3);
      (prefix ^ "_2b", conv2d ~k ~c:k ~y ~x:y ~p:3 ~q:3) ]
  in
  [ ("conv1", conv2d_strided ~stride:2 ~k:64 ~c:3 ~y:112 ~x:112 ~p:7 ~q:7);
    ("conv2_1a", conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3);
    ("conv2_1b", conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3);
    ("conv2_2a", conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3);
    ("conv2_2b", conv2d ~k:64 ~c:64 ~y:56 ~x:56 ~p:3 ~q:3) ]
  @ block "conv3" ~k:128 ~y:28
  @ block "conv4" ~k:256 ~y:14
  @ block "conv5" ~k:512 ~y:7
  @ [ ("fc", gemm ~m:8 ~n:1000 ~k:512) ]

let bert_base () =
  (* one encoder layer at sequence length 128, hidden 768, 12 heads of 64;
     the three QKV projections and the output projection share one GEMM
     shape, so 8 layers dedup to 5 unique shapes *)
  [ ("q_proj", gemm ~m:128 ~n:768 ~k:768);
    ("k_proj", gemm ~m:128 ~n:768 ~k:768);
    ("v_proj", gemm ~m:128 ~n:768 ~k:768);
    ("attn_scores", gemm ~m:128 ~n:128 ~k:64);
    ("attn_ctx", gemm ~m:128 ~n:64 ~k:128);
    ("attn_out", gemm ~m:128 ~n:768 ~k:768);
    ("ffn_up", gemm ~m:128 ~n:3072 ~k:768);
    ("ffn_down", gemm ~m:128 ~n:768 ~k:3072) ]

let tiny_net () =
  (* smoke-gate network: small extents, one duplicated shape so the gates
     can watch both inter-layer dedup and store warm-up *)
  [ ("conv_a", conv2d ~k:8 ~c:8 ~y:8 ~x:8 ~p:3 ~q:3);
    ("conv_b", conv2d ~k:8 ~c:8 ~y:8 ~x:8 ~p:3 ~q:3);
    ("gemm_a", gemm ~m:32 ~n:32 ~k:32);
    ("gemv_a", batched_gemv ~m:8 ~n:16 ~k:16) ]

let networks () =
  [ ("resnet18", resnet18 ());
    ("bert-base", bert_base ());
    ("tiny", tiny_net ()) ]

let all_named () =
  [ ("GEMM", gemm ~m:256 ~n:256 ~k:256);
    ("Batched-GEMV", batched_gemv ~m:64 ~n:256 ~k:256);
    ("Conv2D-L2", resnet_layer2);
    ("Conv2D-L5", resnet_layer5);
    ("Depthwise-Conv", depthwise_conv ~k:256 ~y:28 ~x:28 ~p:3 ~q:3);
    ("MTTKRP", mttkrp ~i:128 ~j:64 ~k:64 ~l:64);
    ("TTMc", ttmc ~i:64 ~j:32 ~k:32 ~l:64 ~m:64) ]
