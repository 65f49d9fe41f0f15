(** The six tensor algebras evaluated in the paper (Table II), plus the
    ResNet Conv2D layer shapes used in §VI-A.

    Iterator order follows the paper's formulas; dataflow names such as
    [KCX-SST] pick iterators by their (upper-cased) names. *)

val gemm : m:int -> n:int -> k:int -> Stmt.t
(** [C[m,n] += A[m,k] * B[n,k]] *)

val batched_gemv : m:int -> n:int -> k:int -> Stmt.t
(** [C[m,n] += A[m,k,n] * B[m,k]] — tensor A is touched exactly once per
    MAC, hence only unicast dataflows exist for it. *)

val conv2d : k:int -> c:int -> y:int -> x:int -> p:int -> q:int -> Stmt.t
(** [C[k,y,x] += A[c,y+p,x+q] * B[k,c,p,q]] *)

val depthwise_conv : k:int -> y:int -> x:int -> p:int -> q:int -> Stmt.t
(** [C[k,y,x] += A[k,y+p,x+q] * B[k,p,q]] *)

val mttkrp : i:int -> j:int -> k:int -> l:int -> Stmt.t
(** [D[i,j] += A[i,k,l] * B[k,j] * C[l,j]] *)

val ttmc : i:int -> j:int -> k:int -> l:int -> m:int -> Stmt.t
(** [D[i,j,k] += A[i,l,m] * B[l,j] * C[m,k]] *)

val conv2d_strided : stride:int -> k:int -> c:int -> y:int -> x:int ->
  p:int -> q:int -> Stmt.t
(** [C[k,y,x] += A[c, stride*y+p, stride*x+q] * B[k,c,p,q]] — strided
    convolution; exercises access-matrix coefficients > 1. *)

val pointwise_conv : k:int -> c:int -> y:int -> x:int -> Stmt.t
(** 1×1 convolution [C[k,y,x] += A[c,y,x] * B[k,c]]. *)

val gemv : m:int -> k:int -> Stmt.t
(** [y[m] += A[m,k] * x[k]] — a rank-1-output corner case. *)

val resnet_layer2 : Stmt.t
(** Conv2D, ResNet-18 conv2_x: 64 ch in/out, 56×56 activations, 3×3. *)

val resnet_layer5 : Stmt.t
(** Conv2D, ResNet-18 conv5_x: 512 ch in/out, 7×7 activations, 3×3 —
    the small [x = y = 7] bounds that hurt PE utilisation in Fig. 5. *)

val networks : unit -> (string * (string * Stmt.t) list) list
(** All whole-network tables by name: ["resnet18"], ["bert-base"],
    ["tiny"]. *)

val all_named : unit -> (string * Stmt.t) list
(** Evaluation-sized instances of every workload, keyed by the names used in
    Fig. 5 ("GEMM", "Batched-GEMV", "Conv2D-L2", "Conv2D-L5",
    "Depthwise-Conv", "MTTKRP", "TTMc"). *)
