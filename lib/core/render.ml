open Relation

let agg_call (a : Aggregate.t) =
  match a.fn with
  | Aggregate.Count -> "count()"
  | Aggregate.Sum c -> Printf.sprintf "sum(%s)" c
  | Aggregate.Min c -> Printf.sprintf "min(%s)" c
  | Aggregate.Max c -> Printf.sprintf "max(%s)" c
  | Aggregate.Avg c -> Printf.sprintf "avg(%s)" c
  | Aggregate.First c -> Printf.sprintf "first(%s)" c

let input_name (g : Ir.Operator.graph) id =
  (Ir.Dag.node g id).Ir.Operator.output

(* ------------- Spark (Scala-like RDD chains) ------------- *)

let rec spark_lines ~shared_scans (g : Ir.Operator.graph) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (n : Ir.Operator.node) ->
       let arg i = input_name g (List.nth n.inputs i) in
       match n.kind with
       | Ir.Operator.Input { relation } ->
         line "val %s = sc.textFile(\"hdfs:///%s\").map(parse)" n.output
           relation
       | Ir.Operator.Select { pred } ->
         line "val %s = %s.filter(t => %s)" n.output (arg 0)
           (Expr.to_string pred)
       | Ir.Operator.Project { columns } ->
         if shared_scans then
           line "val %s = %s.map(t => (%s))  // fused scan" n.output (arg 0)
             (String.concat ", " columns)
         else begin
           line "val %s_cols = %s.map(t => t)       // naive: extra pass"
             n.output (arg 0);
           line "val %s = %s_cols.map(t => (%s))" n.output n.output
             (String.concat ", " columns)
         end
       | Ir.Operator.Map { target; expr } ->
         line "val %s = %s.map(t => t.copy(%s = %s))" n.output (arg 0) target
           (Expr.to_string expr)
       | Ir.Operator.Join { left_key; right_key } ->
         if shared_scans then begin
           line "val %s = %s.keyBy(_.%s).join(%s.keyBy(_.%s))" n.output
             (arg 0) left_key (arg 1) right_key;
           line "  .map { case (k, (l, r)) => flatten(k, l, r) }  \
                 // look-ahead typed"
         end
         else begin
           line "val %s_l = %s.map(t => (t.%s, t))" n.output (arg 0) left_key;
           line "val %s_r = %s.map(t => (t.%s, t))" n.output (arg 1) right_key;
           line "val %s_j = %s_l.join(%s_r)" n.output n.output n.output;
           line "val %s = %s_j.map { case (k, (l, r)) => flatten(k, l, r) }"
             n.output n.output
         end
       | Ir.Operator.Left_outer_join { left_key; right_key; _ } ->
         line "val %s = %s.keyBy(_.%s).leftOuterJoin(%s.keyBy(_.%s))"
           n.output (arg 0) left_key (arg 1) right_key;
         line "  .map { case (k, (l, r)) => flatten(k, l, r.getOrElse(defaults)) }"
       | Ir.Operator.Semi_join { left_key; right_key } ->
         line "val %s = %s.keyBy(_.%s).join(%s.map(t => (t.%s, ())).distinct()).map(_._2._1)"
           n.output (arg 0) left_key (arg 1) right_key
       | Ir.Operator.Anti_join { left_key; right_key } ->
         line "val %s = %s.keyBy(_.%s).subtractByKey(%s.keyBy(_.%s)).map(_._2)"
           n.output (arg 0) left_key (arg 1) right_key
       | Ir.Operator.Cross ->
         line "val %s = %s.cartesian(%s)" n.output (arg 0) (arg 1)
       | Ir.Operator.Union ->
         line "val %s = %s.union(%s)" n.output (arg 0) (arg 1)
       | Ir.Operator.Intersect ->
         line "val %s = %s.intersection(%s)" n.output (arg 0) (arg 1)
       | Ir.Operator.Difference ->
         line "val %s = %s.subtract(%s)" n.output (arg 0) (arg 1)
       | Ir.Operator.Distinct ->
         line "val %s = %s.distinct()" n.output (arg 0)
       | Ir.Operator.Group_by { keys; aggs } ->
         line "val %s = %s.map(t => ((%s), t)).reduceByKey(%s)" n.output
           (arg 0)
           (String.concat ", " keys)
           (String.concat "; " (List.map agg_call aggs))
       | Ir.Operator.Agg { aggs } ->
         line "val %s = %s.aggregate(%s)" n.output (arg 0)
           (String.concat "; " (List.map agg_call aggs))
       | Ir.Operator.Sort { by; descending } ->
         line "val %s = %s.sortBy(_.%s)%s" n.output (arg 0) by
           (if descending then ".reverse" else "")
       | Ir.Operator.Top_k { by; descending; k } ->
         line "val %s = %s.top(%d)(Ordering.by(_.%s))%s" n.output (arg 0) k
           by
           (if descending then "" else ".reverse")
       | Ir.Operator.Udf u ->
         line "val %s = udf_%s(%s)" n.output u.udf_name
           (String.concat ", "
              (List.mapi (fun i _ -> arg i) n.inputs))
       | Ir.Operator.While { condition; max_iterations; body } ->
         line "var iter = 0";
         line "while (%s) {  // max %d"
           (match condition with
            | Ir.Operator.Fixed_iterations k -> Printf.sprintf "iter < %d" k
            | Ir.Operator.Until_empty r -> Printf.sprintf "!%s.isEmpty()" r
            | Ir.Operator.Until_fixpoint r -> Printf.sprintf "%s != %s_prev" r r)
           max_iterations;
         Buffer.add_string buf
           (String.concat "\n"
              (List.map (fun l -> "  " ^ l)
                 (String.split_on_char '\n'
                    (spark_lines ~shared_scans body))));
         line "";
         List.iter
           (fun (old, next) ->
              line "  %s.saveAsTextFile(\"hdfs:///%s\")  // carried" next old)
           body.Ir.Operator.carried;
         line "  iter += 1";
         line "}"
       | Ir.Operator.Black_box { description; _ } ->
         line "// black box: %s" description)
    g.nodes;
  List.iter
    (fun id ->
       line "%s.saveAsTextFile(\"hdfs:///%s\")" (input_name g id)
         (input_name g id))
    g.outputs;
  Buffer.contents buf

(* ------------- Hadoop / Metis (MapReduce pseudo-Java) ------------- *)

let mapreduce_lines ~engine (g : Ir.Operator.graph) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "// %s job: map phase fuses scans; one shuffle; reduce phase" engine;
  line "public void map(LongWritable k, Text value) {";
  List.iter
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Input { relation } ->
         line "  Row t = parse(value);  // from hdfs:///%s" relation
       | Ir.Operator.Select { pred } ->
         line "  if (!(%s)) return;" (Expr.to_string pred)
       | Ir.Operator.Project { columns } ->
         line "  t = t.project(%s);" (String.concat ", " columns)
       | Ir.Operator.Map { target; expr } ->
         line "  t.%s = %s;" target (Expr.to_string expr)
       | Ir.Operator.Join { left_key; right_key } ->
         line "  emit(tag(t, t.%s /* or %s */), t);  // repartition join"
           left_key right_key
       | Ir.Operator.Group_by { keys; _ } ->
         line "  emit((%s), t);" (String.concat ", " keys)
       | Ir.Operator.Agg _ -> line "  emit(NULL_KEY, t);"
       | _ -> ())
    g.nodes;
  line "}";
  line "public void reduce(Key k, Iterable<Row> rows) {";
  List.iter
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Join _ ->
         line "  // build left side, stream right side";
         line "  for (Row r : rows) collect(flatten(k, r));"
       | Ir.Operator.Group_by { aggs; _ } | Ir.Operator.Agg { aggs } ->
         List.iter
           (fun a -> line "  acc = combine(acc, %s);" (agg_call a))
           aggs;
         line "  collect(acc);"
       | Ir.Operator.Intersect ->
         line "  if (seenInBoth(rows)) collect(k);"
       | Ir.Operator.Difference ->
         line "  if (onlyInLeft(rows)) collect(k);"
       | Ir.Operator.Distinct -> line "  collect(k);  // first per key"
       | _ -> ())
    g.nodes;
  line "}";
  Buffer.contents buf

(* ------------- Naiad (C#-like timely dataflow) ------------- *)

let naiad_lines ~shared_scans (g : Ir.Operator.graph) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (n : Ir.Operator.node) ->
       let arg i = input_name g (List.nth n.inputs i) in
       match n.kind with
       | Ir.Operator.Input { relation } ->
         line "var %s = controller.ReadFromHdfs(\"%s\")%s;" n.output relation
           (if shared_scans then "  // parallel readers"
            else "  // single reader thread")
       | Ir.Operator.Select { pred } ->
         line "var %s = %s.Where(t => %s);" n.output (arg 0)
           (Expr.to_string pred)
       | Ir.Operator.Project { columns } ->
         line "var %s = %s.Select(t => new { %s });" n.output (arg 0)
           (String.concat ", " columns)
       | Ir.Operator.Map { target; expr } ->
         line "var %s = %s.Select(t => t With { %s = %s });" n.output (arg 0)
           target (Expr.to_string expr)
       | Ir.Operator.Join { left_key; right_key } ->
         line "var %s = %s.Join(%s, l => l.%s, r => r.%s, Flatten);" n.output
           (arg 0) (arg 1) left_key right_key
       | Ir.Operator.Group_by { keys; aggs } ->
         if shared_scans then
           line
             "var %s = %s.VertexAggregate(t => (%s), %s);  \
              // low-level vertex API (associative)"
             n.output (arg 0)
             (String.concat ", " keys)
             (String.concat "; " (List.map agg_call aggs))
         else
           line
             "var %s = %s.GroupBy(t => (%s), (k, ts) => %s);  \
              // Lindi collect-based GROUP BY"
             n.output (arg 0)
             (String.concat ", " keys)
             (String.concat "; " (List.map agg_call aggs))
       | Ir.Operator.While { condition; max_iterations; _ } ->
         line "var loop = %s.Iterate((lc, s) => Body(s), %d);  // %s"
           n.output max_iterations
           (match condition with
            | Ir.Operator.Fixed_iterations k ->
              Printf.sprintf "%d fixed iterations" k
            | Ir.Operator.Until_empty r -> "until " ^ r ^ " empty"
            | Ir.Operator.Until_fixpoint r -> "until " ^ r ^ " fixpoint")
       | kind -> line "var %s = %s(...);" n.output (Ir.Operator.kind_name kind))
    g.nodes;
  Buffer.contents buf

(* ------------- PowerGraph / GraphChi (GAS vertex program) ------------- *)

let gas_lines ~engine (g : Ir.Operator.graph) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "// %s vertex program generated from the GAS idiom" engine;
  let emit_body (body : Ir.Operator.graph) =
    List.iter
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Group_by { aggs; _ } ->
           line "gather_type gather(icontext, vertex, edge) {";
           List.iter (fun a -> line "  return %s;" (agg_call a)) aggs;
           line "}"
         | Ir.Operator.Map { target; expr } ->
           line "void apply(icontext, vertex, gather_total) {";
           line "  vertex.data().%s = %s;" target (Expr.to_string expr);
           line "}"
         | Ir.Operator.Join _ ->
           line "void scatter(icontext, vertex, edge) {";
           line "  signal(edge.target());  // send state along out-edges";
           line "}"
         | _ -> ())
      body.nodes
  in
  List.iter
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.While { body; max_iterations; _ } ->
         line "// up to %d supersteps" max_iterations;
         emit_body body
       | _ -> ())
    g.nodes;
  Buffer.contents buf

(* ------------- serial C ------------- *)

let c_lines (g : Ir.Operator.graph) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "int main(void) {";
  List.iter
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Input { relation } ->
         line "  rows_t %s = read_hdfs(\"%s\");" n.output relation
       | Ir.Operator.Select { pred } ->
         line "  rows_t %s = filter(%s, /* %s */);" n.output
           (input_name g (List.hd n.inputs))
           (Expr.to_string pred)
       | Ir.Operator.Join { left_key; right_key } ->
         line "  rows_t %s = hash_join(%s, %s, %s, %s);" n.output
           (input_name g (List.nth n.inputs 0))
           (input_name g (List.nth n.inputs 1))
           left_key right_key
       | Ir.Operator.Group_by { keys; _ } ->
         line "  rows_t %s = group_by(%s, (%s));" n.output
           (input_name g (List.hd n.inputs))
           (String.concat ", " keys)
       | kind ->
         line "  /* %s -> %s */" (Ir.Operator.kind_name kind) n.output)
    g.nodes;
  List.iter
    (fun id -> line "  write_hdfs(\"%s\", %s);" (input_name g id)
        (input_name g id))
    g.outputs;
  line "  return 0;";
  line "}";
  Buffer.contents buf

let render backend ~shared_scans (g : Ir.Operator.graph) =
  match backend with
  | Engines.Backend.Spark -> spark_lines ~shared_scans g
  | Engines.Backend.Hadoop -> mapreduce_lines ~engine:"Hadoop" g
  | Engines.Backend.Metis -> mapreduce_lines ~engine:"Metis" g
  | Engines.Backend.Naiad -> naiad_lines ~shared_scans g
  | Engines.Backend.Power_graph -> gas_lines ~engine:"PowerGraph" g
  | Engines.Backend.Graph_chi -> gas_lines ~engine:"GraphChi" g
  | Engines.Backend.Giraph -> gas_lines ~engine:"Giraph" g
  | Engines.Backend.X_stream -> gas_lines ~engine:"X-Stream" g
  | Engines.Backend.Serial_c -> c_lines g
