// Tests for the tier-3 specializing compiler: superblock formation, map and
// model constant folding with epoch/version deopt guards, tile-aware matmul
// kernels — and, most importantly, the three-tier differential property that
// interpreter, tier-2, and tier-3 execution agree (results and RunStats) on
// randomly generated programs, including at the exact deopt boundary.
#include <array>
#include <gtest/gtest.h>

#include "src/base/failpoints.h"
#include "src/base/rng.h"
#include "src/bytecode/assembler.h"
#include "src/ml/decision_tree.h"
#include "src/ml/model_registry.h"
#include "src/rmt/control_plane.h"
#include "src/rmt/introspect.h"
#include "src/vm/jit.h"
#include "src/vm/specialize.h"
#include "src/vm/vm.h"

namespace rkd {
namespace {

BytecodeProgram MustBuild(Assembler& a) {
  Result<BytecodeProgram> program = a.Build();
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

ModelPtr MakeConstantTree(int32_t label) {
  Dataset data(1);
  data.Add(std::array<int32_t, 1>{0}, label);
  data.Add(std::array<int32_t, 1>{1}, label);
  return std::make_shared<DecisionTree>(std::move(DecisionTree::Train(data)).value());
}

// A self-contained specialization environment: maps, models, tensors, and
// the guard cells the SpecializeContext pins.
struct SpecEnv {
  MapSet maps;
  ModelRegistry models;
  TensorRegistry tensors;
  RmtTable table{"t", MatchKind::kExact, 16};

  SpecializeContext Context() {
    SpecializeContext ctx;
    ctx.maps = &maps;
    ctx.models = &models;
    ctx.tensors = &tensors;
    ctx.map_write_version = maps.write_version_cell();
    ctx.table_version = table.version_cell();
    return ctx;
  }

  VmEnv Vm() {
    VmEnv env;
    env.maps = &maps;
    env.models = &models;
    env.tensors = &tensors;
    return env;
  }
};

SpecializedProgram MustSpecialize(const BytecodeProgram& program, const SpecializeContext& ctx) {
  Result<SpecializedProgram> spec = SpecializedProgram::Specialize(program, ctx);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return std::move(spec).value();
}

// --- Superblock formation ---

TEST(SpecializeTest, StraightLineProgramIsOneSuperblock) {
  Assembler a("line");
  a.MovImm(0, 1).AddImm(0, 2).MulImm(0, 3).Exit();
  SpecEnv env;
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  EXPECT_EQ(spec.superblocks(), 1u);
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(*run, 9);
}

TEST(SpecializeTest, BranchesSplitSuperblocks) {
  Assembler a("branchy");
  auto skip = a.NewLabel();
  auto end = a.NewLabel();
  a.JltImm(1, 10, skip);
  a.MovImm(0, 2);
  a.Ja(end);
  a.Bind(skip);
  a.MovImm(0, 1);
  a.Bind(end);
  a.Exit();
  SpecEnv env;
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  EXPECT_GE(spec.superblocks(), 3u);
  VmEnv vm = env.Vm();
  Result<int64_t> low = spec.Run(vm, std::array<int64_t, 1>{5});
  Result<int64_t> high = spec.Run(vm, std::array<int64_t, 1>{50});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(*low, 1);
  EXPECT_EQ(*high, 2);
}

TEST(SpecializeTest, ConstantFoldsStraightLineAlu) {
  Assembler a("fold");
  a.MovImm(1, 6).MovImm(2, 7).Mov(0, 1).Mul(0, 2).Exit();
  SpecEnv env;
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 42);
}

TEST(SpecializeTest, ExpiredDeadlineFaultsAtEntry) {
  Assembler a("deadline");
  a.MovImm(0, 1).Exit();
  SpecEnv env;
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  VmEnv vm = env.Vm();
  FireDeadline deadline;
  deadline.deadline_ns = 1;  // epoch + 1ns: expired long ago
  vm.deadline = &deadline;
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SpecializeTest, RejectsMalformedProgramsLikeTier2) {
  BytecodeProgram program;
  program.name = "loop";
  Instruction jump;
  jump.opcode = Opcode::kJa;
  jump.offset = -1;
  program.code.push_back(jump);
  Instruction exit_insn;
  exit_insn.opcode = Opcode::kExit;
  program.code.push_back(exit_insn);
  SpecEnv env;
  Result<SpecializedProgram> spec = SpecializedProgram::Specialize(program, env.Context());
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kVerificationFailed);
}

// --- Map constant folding and the write-version guard ---

TEST(SpecializeTest, FoldsFrozenMapLookupAndDeoptsOnWrite) {
  SpecEnv env;
  Result<int64_t> map_id = env.maps.Create(MapKind::kArray, 16);
  ASSERT_TRUE(map_id.ok());
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(3, 777));

  Assembler a("frozen");
  a.DeclareMaps(1);
  a.MovImm(1, 3);
  a.MapLookup(0, 1, *map_id);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);

  SpecializedProgram spec = MustSpecialize(program, env.Context());
  EXPECT_EQ(spec.folded_lookups(), 1u);
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 777);
  EXPECT_TRUE(spec.GuardOk());

  // A control-plane write invalidates the fold: the guard must fail with
  // kMapWrite, and a respecialization at the new snapshot sees the new value.
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(3, 888));
  env.maps.BumpWriteVersion();
  DeoptReason why = DeoptReason::kTableMutation;
  EXPECT_FALSE(spec.GuardOk(&why));
  EXPECT_EQ(why, DeoptReason::kMapWrite);

  SpecializedProgram respec = MustSpecialize(program, env.Context());
  Result<int64_t> rerun = respec.Run(vm, {});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, 888);
}

TEST(SpecializeTest, FireWrittenMapsAreNeverFolded) {
  SpecEnv env;
  Result<int64_t> map_id = env.maps.Create(MapKind::kArray, 16);
  ASSERT_TRUE(map_id.ok());
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(2, 5));

  // The program writes the map itself, then reads it back: the lookup must
  // stay generic (live) or the fire would see its own write disappear.
  Assembler a("selfwrite");
  a.DeclareMaps(1);
  a.MovImm(1, 2);
  a.MovImm(2, 123);
  a.MapUpdate(*map_id, 1, 2);
  a.MapLookup(0, 1, *map_id);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);

  SpecializeContext ctx = env.Context();
  ctx.fire_written_maps.push_back(*map_id);
  SpecializedProgram spec = MustSpecialize(program, ctx);
  EXPECT_EQ(spec.folded_lookups(), 0u);
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 123);
}

TEST(SpecializeTest, DynamicKeyArrayLookupIsBurnedNotFolded) {
  SpecEnv env;
  Result<int64_t> map_id = env.maps.Create(MapKind::kArray, 16);
  ASSERT_TRUE(map_id.ok());
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(7, 70));

  Assembler a("burned");
  a.DeclareMaps(1);
  a.MapLookup(0, 1, *map_id);  // key arrives in r1 at fire time
  a.Exit();
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  EXPECT_EQ(spec.folded_lookups(), 0u);
  EXPECT_EQ(spec.burned_lookups(), 1u);
  VmEnv vm = env.Vm();
  Result<int64_t> hit = spec.Run(vm, std::array<int64_t, 1>{7});
  Result<int64_t> miss = spec.Run(vm, std::array<int64_t, 1>{9});
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*hit, 70);
  EXPECT_EQ(*miss, 0);
}

TEST(SpecializeTest, FoldedLookupStillHonoursFailpoints) {
  SpecEnv env;
  Result<int64_t> map_id = env.maps.Create(MapKind::kArray, 16);
  ASSERT_TRUE(map_id.ok());
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(1, 100));

  Assembler a("failpoint");
  a.DeclareMaps(1);
  a.MovImm(1, 1);
  a.MapLookup(0, 1, *map_id);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);
  Result<CompiledProgram> tier2 = CompiledProgram::Compile(program);
  ASSERT_TRUE(tier2.ok());
  SpecializedProgram spec = MustSpecialize(program, env.Context());
  ASSERT_EQ(spec.folded_lookups(), 1u);
  VmEnv vm = env.Vm();

  {
    FailpointSpec corrupt;
    corrupt.mode = FailpointMode::kAlways;
    corrupt.corrupt_xor = 0xff;
    ScopedFailpoint fp("vm.map_lookup", corrupt);
    Result<int64_t> second = tier2->Run(vm, {});
    Result<int64_t> third = spec.Run(vm, {});
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(*second, *third);  // both perturbed identically
    EXPECT_EQ(*third, 100 ^ 0xff);
  }
  {
    FailpointSpec fault;
    fault.mode = FailpointMode::kAlways;
    fault.force_error = true;
    ScopedFailpoint fp("vm.map_lookup", fault);
    Result<int64_t> second = tier2->Run(vm, {});
    Result<int64_t> third = spec.Run(vm, {});
    ASSERT_FALSE(second.ok());
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(second.status().ToString(), third.status().ToString());
  }
}

// --- Model folding and the slot-version guard ---

TEST(SpecializeTest, FoldsModelAndDeoptsOnInstall) {
  SpecEnv env;
  const int64_t slot = env.models.AddSlot();
  ASSERT_TRUE(env.models.Install(slot, MakeConstantTree(11)).ok());

  Assembler a("mlfold");
  a.DeclareModels(1);
  a.VecZero(0);
  a.MlCall(0, 0, slot);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);

  SpecializedProgram spec = MustSpecialize(program, env.Context());
  EXPECT_EQ(spec.folded_models(), 1u);
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 11);
  EXPECT_TRUE(spec.GuardOk());

  // A model hot-swap must deopt: the burned weights are stale.
  ASSERT_TRUE(env.models.Install(slot, MakeConstantTree(22)).ok());
  DeoptReason why = DeoptReason::kMapWrite;
  EXPECT_FALSE(spec.GuardOk(&why));
  EXPECT_EQ(why, DeoptReason::kModelInstall);

  SpecializedProgram respec = MustSpecialize(program, env.Context());
  Result<int64_t> rerun = respec.Run(vm, {});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, 22);
}

TEST(SpecializeTest, EmptyModelSlotStaysLive) {
  SpecEnv env;
  const int64_t slot = env.models.AddSlot();  // never installed

  Assembler a("mlempty");
  a.DeclareModels(1);
  a.VecZero(0);
  a.MlCall(0, 0, slot);
  a.Exit();
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  EXPECT_EQ(spec.folded_models(), 0u);
  VmEnv vm = env.Vm();
  Result<int64_t> run = spec.Run(vm, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, kNoModelSentinel);

  // A later install is picked up live (no guard pinned an empty slot).
  ASSERT_TRUE(env.models.Install(slot, MakeConstantTree(33)).ok());
  EXPECT_TRUE(spec.GuardOk());
  Result<int64_t> rerun = spec.Run(vm, {});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, 33);
}

// --- Table-version guard ---

TEST(SpecializeTest, TableMutationDeopts) {
  SpecEnv env;
  Assembler a("tableguard");
  a.MovImm(0, 1).Exit();
  SpecializedProgram spec = MustSpecialize(MustBuild(a), env.Context());
  EXPECT_TRUE(spec.GuardOk());

  TableEntry entry;
  entry.key = 1;
  entry.action_index = 0;
  ASSERT_TRUE(env.table.Insert(entry).ok());
  DeoptReason why = DeoptReason::kMapWrite;
  EXPECT_FALSE(spec.GuardOk(&why));
  EXPECT_EQ(why, DeoptReason::kTableMutation);
}

// --- Tile-aware matmul kernels ---

FixedMatrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  FixedMatrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.at(r, c) = Fixed32::FromDouble(rng.NextInt(-200, 200) / 100.0).raw();
    }
  }
  return m;
}

// Builds vsrc from ctx-free scalars, multiplies by tensor 0, reduces.
BytecodeProgram MatMulProgram(size_t cols) {
  Assembler a("matmul");
  a.DeclareTensors(1);
  a.VecZero(0);
  for (size_t lane = 0; lane < cols && lane < 8; ++lane) {
    a.MovImm(2, static_cast<int64_t>((lane + 1)) << 16);
    a.ScalarVal(0, static_cast<int32_t>(lane), 2);
  }
  a.MatMul(1, 0, 0);
  a.VecArgmax(0, 1);
  a.Exit();
  Result<BytecodeProgram> program = a.Build();
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(SpecializeTest, TileKernelStrategyFollowsAspectRatio) {
  Rng rng(99);
  {
    SpecEnv env;
    env.tensors.Add(RandomMatrix(rng, 4, 8));  // wide: outputs few, reuse x
    SpecializedProgram spec = MustSpecialize(MatMulProgram(8), env.Context());
    ASSERT_EQ(spec.tile_kernels(), 1u);
    EXPECT_EQ(spec.tile_strategy(0), DataflowStrategy::kOutputStationary);
  }
  {
    SpecEnv env;
    env.tensors.Add(RandomMatrix(rng, 8, 4));  // tall: stream weight columns
    SpecializedProgram spec = MustSpecialize(MatMulProgram(4), env.Context());
    ASSERT_EQ(spec.tile_kernels(), 1u);
    EXPECT_EQ(spec.tile_strategy(0), DataflowStrategy::kWeightStationary);
  }
}

TEST(SpecializeTest, TileKernelsAreBitIdenticalToTier2) {
  Rng rng(7);
  for (const auto [rows, cols] : std::array<std::pair<size_t, size_t>, 6>{
           {{3, 5}, {4, 4}, {8, 8}, {16, 8}, {8, 16}, {32, 32}}}) {
    SpecEnv env;
    env.tensors.Add(RandomMatrix(rng, rows, cols));
    const BytecodeProgram program = MatMulProgram(cols);
    Result<CompiledProgram> tier2 = CompiledProgram::Compile(program);
    ASSERT_TRUE(tier2.ok());
    SpecializedProgram spec = MustSpecialize(program, env.Context());
    EXPECT_EQ(spec.tile_kernels(), 1u);
    VmEnv vm = env.Vm();
    const Interpreter interp(vm);
    Result<int64_t> first = interp.Run(program, {});
    Result<int64_t> second = tier2->Run(vm, {});
    Result<int64_t> third = spec.Run(vm, {});
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(*first, *second) << rows << "x" << cols;
    EXPECT_EQ(*second, *third) << rows << "x" << cols;
  }
}

TEST(SpecializeTest, OversizedTensorFoldsToZeroVector) {
  SpecEnv env;
  env.tensors.Add(FixedMatrix(40, 40));  // rows > kVectorLanes: tier 2 zeros
  Assembler a("oversize");
  a.DeclareTensors(1);
  a.VecZero(0);
  a.MovImm(2, 3 << 16);
  a.ScalarVal(0, 1, 2);
  a.MatMul(1, 0, 0);
  a.VecExtract(0, 1, 0);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);
  Result<CompiledProgram> tier2 = CompiledProgram::Compile(program);
  ASSERT_TRUE(tier2.ok());
  SpecializedProgram spec = MustSpecialize(program, env.Context());
  EXPECT_EQ(spec.tile_kernels(), 0u);
  VmEnv vm = env.Vm();
  Result<int64_t> second = tier2->Run(vm, {});
  Result<int64_t> third = spec.Run(vm, {});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*second, *third);
  EXPECT_EQ(*third, 0);
}

// --- Tail calls ---

TEST(SpecializeTest, TailCallsResolveThroughTier2Targets) {
  Assembler callee_asm("callee");
  callee_asm.MovImm(0, 55).Exit();
  Result<CompiledProgram> callee = CompiledProgram::Compile(MustBuild(callee_asm));
  ASSERT_TRUE(callee.ok());

  Assembler a("caller");
  a.DeclareTables(1);
  a.MovImm(0, 1);
  a.TailCall(0);
  a.MovImm(0, 99);  // fall-through when the call does not resolve
  a.Exit();
  const BytecodeProgram program = MustBuild(a);
  SpecEnv env;
  SpecializedProgram spec = MustSpecialize(program, env.Context());
  VmEnv vm = env.Vm();

  CompiledProgram::Resolver resolve = [&](int64_t) { return &*callee; };
  RunStats stats;
  Result<int64_t> taken = spec.Run(vm, {}, &stats, resolve);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(*taken, 55);
  EXPECT_EQ(stats.tail_calls, 1u);

  RunStats missed_stats;
  Result<int64_t> missed = spec.Run(vm, {}, &missed_stats, {});
  ASSERT_TRUE(missed.ok());
  EXPECT_EQ(*missed, 99);  // unresolved: falls through, same as tier 2
  EXPECT_EQ(missed_stats.tail_calls, 0u);
}

// --- Three-tier differential property ---

// Random program over ALU/stack/branch/map/vector ops. Map 0 is fire-written
// (update instructions target it); map 1 is frozen and thus foldable.
BytecodeProgram RandomTieredProgram(Rng& rng, size_t length) {
  Assembler a("random3");
  a.DeclareMaps(2).DeclareModels(1).DeclareTensors(1);
  for (int reg = 0; reg <= 9; ++reg) {
    a.MovImm(reg, rng.NextInt(-1000, 1000));
  }
  a.StStackImm(-8, rng.NextInt(-50, 50));
  a.StStackImm(-16, rng.NextInt(-50, 50));

  std::vector<Assembler::Label> pending;
  for (size_t i = 0; i < length; ++i) {
    const int dst = static_cast<int>(rng.NextBounded(10));
    const int src = static_cast<int>(rng.NextBounded(10));
    switch (rng.NextBounded(18)) {
      case 0: a.Add(dst, src); break;
      case 1: a.Sub(dst, src); break;
      case 2: a.MulImm(dst, rng.NextInt(-9, 9)); break;
      case 3: a.Div(dst, src); break;
      case 4: a.And(dst, src); break;
      case 5: a.Or(dst, src); break;
      case 6: a.Xor(dst, src); break;
      case 7: a.AshrImm(dst, rng.NextInt(0, 8)); break;
      case 8: a.Mov(dst, src); break;
      case 9: a.Neg(dst); break;
      case 10: a.LdStack(dst, rng.NextBool() ? -8 : -16); break;
      case 11: a.StStack(rng.NextBool() ? -8 : -16, src); break;
      case 12: {
        auto label = a.NewLabel();
        a.JltImm(dst, rng.NextInt(-100, 100), label);
        pending.push_back(label);
        break;
      }
      case 13: {
        auto label = a.NewLabel();
        a.Jge(dst, src, label);
        pending.push_back(label);
        break;
      }
      case 14: {
        // Frozen-map lookup, constant key half the time (fold candidate).
        if (rng.NextBool()) {
          a.MovImm(src, rng.NextInt(0, 15));
        }
        a.MapLookup(dst, src, 1);
        break;
      }
      case 15: a.MapExists(dst, src, 1); break;
      case 16: a.MapUpdate(0, dst, src); break;
      case 17: a.MapLookup(dst, src, 0); break;
    }
    while (pending.size() > 2) {
      a.Bind(pending.front());
      pending.erase(pending.begin());
    }
  }
  for (auto& label : pending) {
    a.Bind(label);
  }
  // Vector + ML coda so every trial exercises the tile and model paths.
  a.VecZero(0);
  for (int lane = 0; lane < 4; ++lane) {
    a.MovImm(2, rng.NextInt(-5, 5) << 16);
    a.ScalarVal(0, lane, 2);
  }
  a.MatMul(1, 0, 0);
  a.VecRelu(1, 1);
  a.VecArgmax(3, 1);
  a.MlCall(4, 1, 0);
  a.Add(0, 3);
  a.Add(0, 4);
  a.Exit();
  Result<BytecodeProgram> program = a.Build();
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

class SpecializeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpecializeDifferentialTest, ThreeTiersAgreeOnRandomPrograms) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    SpecEnv env;
    Result<int64_t> map0 = env.maps.Create(MapKind::kArray, 16);
    Result<int64_t> map1 = env.maps.Create(MapKind::kArray, 16);
    ASSERT_TRUE(map0.ok());
    ASSERT_TRUE(map1.ok());
    for (int64_t k = 0; k < 16; ++k) {
      ASSERT_TRUE(env.maps.Get(*map1)->Update(k, rng.NextInt(-100, 100)));
    }
    env.tensors.Add(RandomMatrix(rng, 4, 4));
    const int64_t slot = env.models.AddSlot();
    ASSERT_TRUE(env.models.Install(slot, MakeConstantTree(rng.NextInt(0, 9))).ok());

    const BytecodeProgram program = RandomTieredProgram(rng, 40);
    Result<CompiledProgram> tier2 = CompiledProgram::Compile(program);
    ASSERT_TRUE(tier2.ok()) << tier2.status();
    SpecializeContext ctx = env.Context();
    ctx.fire_written_maps.push_back(*map0);
    SpecializedProgram tier3 = MustSpecialize(program, ctx);

    const std::array<int64_t, 3> args{rng.NextInt(-5, 5), rng.NextInt(-5, 5),
                                      rng.NextInt(-5, 5)};
    // Map 0 is fire-written: reset it between runs so each tier sees the
    // same starting state.
    const auto reset_map0 = [&] {
      for (int64_t k = 0; k < 16; ++k) {
        ASSERT_TRUE(env.maps.Get(*map0)->Update(k, 0));
      }
    };
    VmEnv vm = env.Vm();
    const Interpreter interp(vm);
    reset_map0();
    RunStats interp_stats;
    Result<int64_t> first = interp.Run(program, args, &interp_stats);
    reset_map0();
    RunStats tier2_stats;
    Result<int64_t> second = tier2->Run(vm, args, &tier2_stats);
    reset_map0();
    RunStats tier3_stats;
    Result<int64_t> third = tier3.Run(vm, args, &tier3_stats);

    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(second.ok()) << second.status();
    ASSERT_TRUE(third.ok()) << third.status();
    EXPECT_EQ(*first, *second) << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(*second, *third) << "seed=" << GetParam() << " trial=" << trial;
    // Tier 2 and tier 3 keep identical RunStats semantics (neither counts
    // steps; tail/helper/ml tallies must agree exactly).
    EXPECT_EQ(tier2_stats.steps, tier3_stats.steps);
    EXPECT_EQ(tier2_stats.tail_calls, tier3_stats.tail_calls);
    EXPECT_EQ(tier2_stats.helper_calls, tier3_stats.helper_calls);
    EXPECT_EQ(tier2_stats.ml_calls, tier3_stats.ml_calls);
    EXPECT_EQ(interp_stats.tail_calls, tier3_stats.tail_calls);
    EXPECT_EQ(interp_stats.ml_calls, tier3_stats.ml_calls);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecializeDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The exact deopt boundary: a specialization raced by a map write. The fire
// that passed the guard computes from the pinned snapshot; the first fire
// after the bump must refuse the stream; tier 2 sees the new value.
TEST(SpecializeDifferentialTest, DeoptBoundaryIsExact) {
  SpecEnv env;
  Result<int64_t> map_id = env.maps.Create(MapKind::kArray, 8);
  ASSERT_TRUE(map_id.ok());
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(0, 1000));

  Assembler a("boundary");
  a.DeclareMaps(1);
  a.MovImm(1, 0);
  a.MapLookup(0, 1, *map_id);
  a.Exit();
  const BytecodeProgram program = MustBuild(a);
  Result<CompiledProgram> tier2 = CompiledProgram::Compile(program);
  ASSERT_TRUE(tier2.ok());
  SpecializedProgram spec = MustSpecialize(program, env.Context());
  VmEnv vm = env.Vm();

  // Before the write: guard passes, folded value is the live value.
  ASSERT_TRUE(spec.GuardOk());
  Result<int64_t> before = spec.Run(vm, {});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 1000);

  // The write lands. The stream still computes the pinned snapshot (a fire
  // that already passed the guard is linearized before the write) but the
  // guard now refuses every new fire: no stale decision escapes the tier
  // dispatch, which routes to tier 2.
  ASSERT_TRUE(env.maps.Get(*map_id)->Update(0, 2000));
  env.maps.BumpWriteVersion();
  EXPECT_FALSE(spec.GuardOk());
  Result<int64_t> fallback = tier2->Run(vm, {});
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 2000);
}

// --- Control-plane tier ladder end-to-end ---

TEST(TierLadderTest, PromotesHotProgramAndDeoptsOnWriteMap) {
  Assembler a("ladder");
  a.DeclareMaps(1);
  a.MovImm(2, 4);
  a.MapLookup(0, 2, 0);
  a.Add(0, 1);
  a.Exit();

  HookRegistry hooks;
  Result<HookId> hook = hooks.Register("tier.hook", HookKind::kGeneric);
  ASSERT_TRUE(hook.ok());
  ControlPlane cp(&hooks);
  RmtProgramSpec spec;
  spec.name = "ladder_prog";
  MapSpec map_spec;
  map_spec.kind = MapKind::kArray;
  map_spec.capacity = 16;
  spec.maps.push_back(map_spec);
  RmtTableSpec table;
  table.name = "ladder_tab";
  table.hook_point = "tier.hook";
  table.actions.push_back(MustBuild(a));
  table.default_action = 0;
  spec.tables.push_back(std::move(table));
  Result<ControlPlane::ProgramHandle> handle = cp.Install(spec);
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_TRUE(cp.WriteMap(*handle, 0, 4, 100).ok());

  ControlPlane::TieringConfig tiering;
  tiering.hot_execs = 16;
  ASSERT_TRUE(cp.EnableTiering(*handle, tiering).ok());

  // Cold: a tick below the threshold must not specialize.
  Result<ControlPlane::TierReport> cold = cp.TickTiering(*handle);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->tier, 2);
  EXPECT_EQ(cold->specializations, 0u);

  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(hooks.Fire(*hook, 7), 107);
  }
  Result<ControlPlane::TierReport> hot = cp.TickTiering(*handle);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->tier, 3);
  EXPECT_EQ(hot->specializations, 1u);
  EXPECT_EQ(hot->specialized_actions, 1u);
  EXPECT_GE(hot->folded_lookups, 1u);

  // Hot fires take the specialized stream and still compute the same value.
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(hooks.Fire(*hook, 7), 107);
  }
  InstalledProgram* program = cp.Get(*handle);
  ASSERT_NE(program, nullptr);
  EXPECT_GE(program->tier3_stats().execs.value(), 8u);

  // A control-plane write deopts in-flight specializations: the next fires
  // fall back to tier 2 (new value immediately visible), the deopt is
  // attributed to kMapWrite, and the next tick respecializes.
  ASSERT_TRUE(cp.WriteMap(*handle, 0, 4, 500).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hooks.Fire(*hook, 7), 507);
  }
  EXPECT_GE(program->tier3_stats()
                .deopts[static_cast<size_t>(DeoptReason::kMapWrite)]
                .value(),
            4u);
  Result<ControlPlane::TierReport> retick = cp.TickTiering(*handle);
  ASSERT_TRUE(retick.ok());
  EXPECT_EQ(retick->tier, 3);
  EXPECT_EQ(retick->specializations, 1u);  // replaced the stale stream
  EXPECT_EQ(retick->retires, 1u);
  EXPECT_EQ(hooks.Fire(*hook, 7), 507);

  // Governor degradation outranks tier 3: the next tick retires everything.
  program->set_governor_level(GovLevel::kDegraded);
  Result<ControlPlane::TierReport> degraded = cp.TickTiering(*handle);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->tier, 2);
  EXPECT_EQ(degraded->specialized_actions, 0u);
  EXPECT_EQ(degraded->retires, 1u);
  // While degraded the hook bypasses the learned policy entirely (fallback
  // oracle / stock heuristic), so the fire reports no opinion.
  EXPECT_EQ(hooks.Fire(*hook, 7), static_cast<int64_t>(kHookFallback));

  // Recovery re-promotes at the next tick.
  program->set_governor_level(GovLevel::kFull);
  Result<ControlPlane::TierReport> recovered = cp.TickTiering(*handle);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tier, 3);

  // TickReport surfaces the ladder state alongside adaptation fields.
  ASSERT_TRUE(cp.EnableAdaptation(*handle, {}).ok());
  Result<ControlPlane::AdaptationReport> adapt = cp.TickReport(*handle);
  ASSERT_TRUE(adapt.ok());
  EXPECT_EQ(adapt->exec_tier, 3);
  EXPECT_EQ(adapt->specialized_actions, 1u);
  EXPECT_GE(adapt->tier3_execs, 8u);
  EXPECT_GE(adapt->tier3_deopts, 4u);

  // The introspection dump names the overlay.
  const std::string dump = DumpProgram(*program);
  EXPECT_NE(dump.find("tier-3 specializations:"), std::string::npos);
  EXPECT_NE(dump.find("specialized fires"), std::string::npos);
}

TEST(TierLadderTest, TracedFiresStayOnTier2) {
  Assembler a("traced");
  a.MovImm(0, 42).Exit();

  HookRegistry hooks;
  hooks.telemetry().tracer().set_sample_every(1);  // force-trace every fire
  Result<HookId> hook = hooks.Register("traced.hook", HookKind::kGeneric);
  ASSERT_TRUE(hook.ok());
  ControlPlane cp(&hooks);
  RmtProgramSpec spec;
  spec.name = "traced_prog";
  RmtTableSpec table;
  table.name = "traced_tab";
  table.hook_point = "traced.hook";
  table.actions.push_back(MustBuild(a));
  table.default_action = 0;
  spec.tables.push_back(std::move(table));
  Result<ControlPlane::ProgramHandle> handle = cp.Install(spec);
  ASSERT_TRUE(handle.ok());
  ControlPlane::TieringConfig tiering;
  tiering.hot_execs = 1;
  ASSERT_TRUE(cp.EnableTiering(*handle, tiering).ok());
  (void)hooks.Fire(*hook, 1);
  ASSERT_TRUE(cp.TickTiering(*handle).ok());

  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(hooks.Fire(*hook, 1), 42);
  }
  // Every fire was traced, so none may have taken the specialized stream.
  InstalledProgram* program = cp.Get(*handle);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->tier3_stats().execs.value(), 0u);
}

TEST(TierLadderTest, OnlySampledBatchEventsStayOnTier2) {
  Assembler a("sampled");
  a.MovImm(0, 42).Exit();

  HookRegistry hooks;
  hooks.telemetry().tracer().set_sample_every(0);
  Result<HookId> hook = hooks.Register("sampled.hook", HookKind::kGeneric);
  ASSERT_TRUE(hook.ok());
  ControlPlane cp(&hooks);
  RmtProgramSpec spec;
  spec.name = "sampled_prog";
  RmtTableSpec table;
  table.name = "sampled_tab";
  table.hook_point = "sampled.hook";
  table.actions.push_back(MustBuild(a));
  table.default_action = 0;
  spec.tables.push_back(std::move(table));
  Result<ControlPlane::ProgramHandle> handle = cp.Install(spec);
  ASSERT_TRUE(handle.ok());
  ControlPlane::TieringConfig tiering;
  tiering.hot_execs = 1;
  ASSERT_TRUE(cp.EnableTiering(*handle, tiering).ok());
  (void)hooks.Fire(*hook, 1);
  ASSERT_TRUE(cp.TickTiering(*handle).ok());
  InstalledProgram* program = cp.Get(*handle);
  ASSERT_NE(program, nullptr);
  const ShardedCounter& tier3_execs = program->tier3_stats().execs;

  const std::vector<HookEvent> events(64, HookEvent(1, {}));
  std::vector<int64_t> results(events.size(), 0);
  // 1-in-16 sampling: 4 of the 64 events run traced on tier 2, and the
  // other 60 keep the specialized stream.
  hooks.telemetry().tracer().set_sample_every(16);
  uint64_t before = tier3_execs.value();
  hooks.FireBatch(*hook, events, results);
  EXPECT_EQ(tier3_execs.value() - before, 60u);
  EXPECT_EQ(results, std::vector<int64_t>(events.size(), 42));

  // A force-traced hook traces, and so keeps on tier 2, the whole batch.
  hooks.AdjustForceTrace(*hook, +1);
  before = tier3_execs.value();
  hooks.FireBatch(*hook, events, results);
  EXPECT_EQ(tier3_execs.value() - before, 0u);
  EXPECT_EQ(results, std::vector<int64_t>(events.size(), 42));
}

}  // namespace
}  // namespace rkd
