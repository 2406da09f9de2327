// CI smoke for the durability path: a child process builds a sharded
// engine with a CheckpointManager attached, runs a deterministic op
// sequence (appends + a seller delta), appends a torn record to the
// live journal and leaves a newer checkpoint half-written and
// uncommitted (a CHECKPOINT.tmp, never renamed) — exactly what a crash
// mid-write leaves behind — and SIGKILLs itself. The parent then
// recovers from the directory and requires the recovered books to match
// an in-process reference replay BIT FOR BIT: version vectors, quote
// prices, and the serialized checkpoint file.
//
// Recovery must skip exactly the uncommitted checkpoint and restore the
// committed one before it: the child's other checkpoints are all
// committed, so another skipped one is a bug in reading them back.
//
// Exit codes: 0 = recovered state is bit-identical; 1 = mismatch or
// recovery failure; 2 = child setup failure (not a durability bug).
//
// The fork happens before any engine (and thus any thread) exists, so
// the child is a plain single-threaded process until it builds its own.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/persist/checkpoint.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve::persist {
namespace {

namespace fs = std::filesystem;

struct Buyer {
  const char* sql;
  double valuation;
};

const std::vector<Buyer>& AllBuyers() {
  static const std::vector<Buyer> buyers = {
      {"select * from Country", 90.0},
      {"select Name from Country where Continent = 'Europe'", 12.0},
      {"select count(*) from City", 6.0},
      {"select max(Population) from Country", 8.0},
      {"select CountryCode, sum(Population) from City group by CountryCode",
       35.0},
      {"select min(LifeExpectancy) from Country", 0.75},
      {"select distinct Continent from Country", 3.5},
  };
  return buyers;
}

/// Same deterministic world as the persist test suite: db + support +
/// sharded engine, identical across processes.
struct World {
  std::unique_ptr<db::Database> db;
  market::SupportSet support;
  std::unique_ptr<ShardedPricingEngine> engine;

  World() {
    db = db::testing::MakeTestDatabase();
    Rng rng(7);
    auto generated =
        market::GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
    QP_CHECK_OK(generated.status());
    support = *generated;
    std::vector<db::BoundQuery> queries;
    for (const Buyer& buyer : AllBuyers()) {
      auto q = db::ParseQuery(buyer.sql, *db);
      QP_CHECK_OK(q.status());
      queries.push_back(*q);
    }
    market::SupportPartition partition = market::SupportPartitioner::FromQueries(
        db.get(), support, queries, {}, {.num_shards = 2});
    engine =
        std::make_unique<ShardedPricingEngine>(db.get(), std::move(partition));
  }

  Status Append(size_t index) {
    auto q = db::ParseQuery(AllBuyers()[index].sql, *db);
    QP_RETURN_IF_ERROR(q.status());
    return engine->AppendBuyers({*q}, {AllBuyers()[index].valuation});
  }
};

market::CellDelta TheDelta() {
  // Country row 1 (FRA), Population column.
  return {0, 1, 3, db::Value::Int(500000000)};
}

/// The op sequence both the child (journaled, then killed) and the
/// parent's reference engine (in-process) execute. checkpoint_every=2
/// puts checkpoints in the middle of it, so recovery exercises both the
/// checkpoint image and journal replay on top.
Status RunOps(World& world) {
  QP_RETURN_IF_ERROR(world.Append(0));
  QP_RETURN_IF_ERROR(world.Append(1));
  QP_RETURN_IF_ERROR(world.engine->ApplySellerDelta(*world.db, TheDelta()));
  QP_RETURN_IF_ERROR(world.Append(2));
  QP_RETURN_IF_ERROR(world.Append(3));
  QP_RETURN_IF_ERROR(world.Append(4));
  return Status::OK();
}

[[noreturn]] void ChildMain(const std::string& dir) {
  World world;
  CheckpointManager manager({.dir = dir, .checkpoint_every = 2, .keep = 2});
  Status status = manager.Attach(world.engine.get());
  if (!status.ok()) {
    std::fprintf(stderr, "child: attach failed: %s\n",
                 status.ToString().c_str());
    _exit(2);
  }
  world.engine->SetWriterLog(&manager);
  status = RunOps(world);
  if (!status.ok()) {
    std::fprintf(stderr, "child: ops failed: %s\n", status.ToString().c_str());
    _exit(2);
  }
  // A crash mid-journal-write leaves a torn record at the tail. Forge
  // one on the live segment: a plausible section header (an append op
  // whose payload length runs past EOF), then silence.
  const uint64_t seq = manager.stats().last_checkpoint_seq;
  {
    std::ofstream out(dir + "/journal-" + std::to_string(seq) + ".log",
                      std::ios::binary | std::ios::app);
    const uint32_t header[2] = {kAppendOp, 64};  // tag, payload length
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write("torn", 4);
  }
  // A crash mid-checkpoint leaves the next checkpoint's directory with
  // a half-written CHECKPOINT.tmp that was never renamed.
  {
    const std::string next = dir + "/checkpoint-" + std::to_string(seq + 1);
    fs::create_directories(next);
    std::ifstream in(dir + "/checkpoint-" + std::to_string(seq) +
                         "/CHECKPOINT",
                     std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(next + "/CHECKPOINT.tmp", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  kill(getpid(), SIGKILL);
  _exit(2);  // unreachable
}

/// Serializes an engine's full state through a fresh CheckpointManager
/// in `scratch` and returns the checkpoint file's raw bytes.
std::vector<char> DumpCheckpoint(ShardedPricingEngine& engine,
                                 const std::string& scratch) {
  fs::remove_all(scratch);
  CheckpointManager dumper({.dir = scratch, .checkpoint_every = 0});
  QP_CHECK_OK(dumper.Attach(&engine));
  std::ifstream in(scratch + "/checkpoint-1/CHECKPOINT", std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

int ParentMain(const std::string& dir, pid_t child) {
  int wstatus = 0;
  if (waitpid(child, &wstatus, 0) != child) {
    std::perror("waitpid");
    return 2;
  }
  if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
    std::fprintf(stderr, "child did not die by SIGKILL (status %d)\n",
                 wstatus);
    return 2;
  }

  // Reference: the same ops, replayed live in this process.
  World reference;
  Status status = RunOps(reference);
  if (!status.ok()) {
    std::fprintf(stderr, "reference ops failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  auto recovered = Recover(dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "FAIL: recovery: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  if (!recovered->journal_torn_tail) {
    std::fprintf(stderr, "FAIL: torn journal tail not detected\n");
    return 1;
  }
  // Only the newest checkpoint is uncommitted: every other checkpoint
  // the child wrote is valid. Fail a checkpoint read that rejects valid
  // files here, by name, rather than by whatever journal replay alone
  // reaches.
  const std::string uncommitted =
      dir + "/checkpoint-" + std::to_string(recovered->checkpoint_seq + 1) +
      "/CHECKPOINT.tmp";
  if (recovered->corrupt_checkpoints_skipped != 1 ||
      recovered->checkpoint_seq < 1 || !fs::exists(uncommitted)) {
    std::fprintf(stderr,
                 "FAIL: recovery skipped %d checkpoint(s) and restored "
                 "checkpoint %lld; it must skip exactly the uncommitted "
                 "one and restore the committed one before it\n",
                 recovered->corrupt_checkpoints_skipped,
                 static_cast<long long>(recovered->checkpoint_seq));
    return 1;
  }
  World restored;
  status = restored.engine->RestoreFromCheckpoint(*recovered,
                                                  restored.db.get());
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: restore: %s\n", status.ToString().c_str());
    return 1;
  }

  int failures = 0;
  if (restored.engine->snapshot().version_vector() !=
      reference.engine->snapshot().version_vector()) {
    std::fprintf(stderr, "FAIL: version vectors differ\n");
    ++failures;
  }
  if (restored.db->table(0).cell(1, 3).as_int() !=
      reference.db->table(0).cell(1, 3).as_int()) {
    std::fprintf(stderr, "FAIL: seller delta not reapplied\n");
    ++failures;
  }
  const market::SupportPartition& partition = reference.engine->partition();
  for (uint32_t item = 0; item < partition.num_items(); ++item) {
    Quote a = reference.engine->QuoteBundle({item});
    Quote b = restored.engine->QuoteBundle({item});
    if (std::memcmp(&a.price, &b.price, sizeof(a.price)) != 0) {
      std::fprintf(stderr, "FAIL: item %u priced %.17g vs %.17g\n", item,
                   a.price, b.price);
      ++failures;
      break;
    }
  }
  const std::vector<char> want =
      DumpCheckpoint(*reference.engine, dir + "/.smoke-ref");
  const std::vector<char> got =
      DumpCheckpoint(*restored.engine, dir + "/.smoke-got");
  if (want.empty() || want != got) {
    std::fprintf(stderr, "FAIL: serialized checkpoint differs\n");
    ++failures;
  }

  if (failures > 0) return 1;
  std::printf(
      "crash_recovery_smoke: OK (checkpoint %lld, uncommitted one skipped, "
      "%zu replayed ops, torn tail, %u items bit-identical)\n",
      static_cast<long long>(recovered->checkpoint_seq),
      recovered->ops.size(), partition.num_items());
  return 0;
}

int Main(int argc, char** argv) {
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) == 0) dir = argv[i] + 6;
  }
  bool own_dir = dir.empty();
  if (own_dir) {
    char tmpl[] = "/tmp/qp_crash_smoke_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 2;
    }
    dir = tmpl;
  }
  pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 2;
  }
  if (child == 0) ChildMain(dir);
  int rc = ParentMain(dir, child);
  if (rc == 0 && own_dir) fs::remove_all(dir);
  return rc;
}

}  // namespace
}  // namespace qp::serve::persist

int main(int argc, char** argv) {
  return qp::serve::persist::Main(argc, argv);
}
