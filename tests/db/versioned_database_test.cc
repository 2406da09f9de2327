// Versioned-catalog unit suite. The contracts pinned here:
//  (a) Commit publishes generations without touching the base database:
//      LogicalCell serves the committed value while the base cell keeps
//      its original bytes until a fold runs;
//  (b) folding triggers on the fold_every cadence, writes exactly the
//      overlay's cells into the base, republishes the same generation
//      number (a fold changes no logical value), and resets the pending
//      gauge;
//  (c) the fold gate defers to pinned readers — a live epoch guard taken
//      before the commits forces fold_retries instead of folds, and the
//      fold lands once the guard releases;
//  (d) head_generation()/stats() are pin-free gauges (quote paths count
//      pins; gauges must not add any), while LogicalCell pins exactly
//      once;
//  (e) a reader pinned on an old generation keeps a valid view of it
//      after later commits (epoch reclamation, not refcounts);
//  (f) fold_every is clamped to >= 1: a cadence of 0 folds on every
//      commit instead of never;
//  (g) a batch commit publishes one generation whose number advances by
//      the delta count it is given (the batch size, or more for cells
//      that already hold the last of several deltas), applies the cells
//      in order (a later write to a cell wins), and folds at most once.
//
// Tests that pin overlay reads use a cadence above their commit count,
// so no fold runs.
#include "db/versioned_database.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "db/database.h"
#include "db/value.h"
#include "tests/testing/test_db.h"

namespace qp::db {
namespace {

// Country.Name: distinct across rows, so swapping in another row's value
// is a guaranteed-visible edit.
constexpr int kTable = 0;
constexpr int kNameCol = 1;
// Above every overlay-pinning test's commit count.
constexpr int kNoFold = 16;

std::unique_ptr<Database> Db() { return testing::MakeTestDatabase(); }

// (a) commits accumulate in the overlay; the base stays const.
TEST(VersionedDatabaseTest, CommitPublishesWithoutTouchingBase) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, kNoFold);

  EXPECT_EQ(catalog.head_generation(), 0u);
  Value original = db->table(kTable).cell(0, kNameCol);
  Value edited = db->table(kTable).cell(1, kNameCol);
  ASSERT_NE(original, edited);

  catalog.Commit(*db, kTable, 0, kNameCol, edited);
  EXPECT_EQ(catalog.head_generation(), 1u);
  // Logical read serves the committed value; the base cell is untouched.
  EXPECT_EQ(catalog.LogicalCell(kTable, 0, kNameCol), edited);
  EXPECT_EQ(db->table(kTable).cell(0, kNameCol), original);

  // Re-committing the same cell replaces in place: generation counts
  // commits, pending counts distinct cells.
  catalog.Commit(*db, kTable, 0, kNameCol, original);
  VersionedDatabase::Stats stats = catalog.stats();
  EXPECT_EQ(catalog.head_generation(), 2u);
  EXPECT_EQ(stats.generations_published, 2u);
  EXPECT_EQ(stats.deltas_pending, 1u);
  EXPECT_EQ(stats.folds, 0u);
  EXPECT_EQ(catalog.LogicalCell(kTable, 0, kNameCol), original);

  // Cells no commit touched fall through to the base.
  EXPECT_EQ(catalog.LogicalCell(kTable, 2, kNameCol),
            db->table(kTable).cell(2, kNameCol));
}

// (b) the fold_every-th distinct cell folds the overlay into the base
// and republishes the same generation number with nothing pending.
TEST(VersionedDatabaseTest, FoldsOnCadenceAndPreservesLogicalReads) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/2);

  Value a = db->table(kTable).cell(1, kNameCol);
  Value b = db->table(kTable).cell(0, kNameCol);
  catalog.Commit(*db, kTable, 0, kNameCol, a);
  EXPECT_EQ(catalog.stats().folds, 0u);
  catalog.Commit(*db, kTable, 1, kNameCol, b);  // second cell: fold fires

  VersionedDatabase::Stats stats = catalog.stats();
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(stats.fold_retries, 0u);
  EXPECT_EQ(stats.deltas_folded, 2u);
  EXPECT_EQ(stats.deltas_pending, 0u);
  // A fold republishes the head number: no logical value changed.
  EXPECT_EQ(catalog.head_generation(), 2u);
  // The base now carries the folded values, and logical reads agree.
  EXPECT_EQ(db->table(kTable).cell(0, kNameCol), a);
  EXPECT_EQ(db->table(kTable).cell(1, kNameCol), b);
  EXPECT_EQ(catalog.LogicalCell(kTable, 0, kNameCol), a);
  EXPECT_EQ(catalog.LogicalCell(kTable, 1, kNameCol), b);
}

// (c) a reader pinned before the commits blocks the fold (fold_retries,
// base untouched); releasing the pin lets TryFold land.
TEST(VersionedDatabaseTest, FoldDefersToPinnedReaders) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/2);

  Value original0 = db->table(kTable).cell(0, kNameCol);
  Value a = db->table(kTable).cell(1, kNameCol);
  Value b = db->table(kTable).cell(0, kNameCol);

  common::EpochManager::Guard reader(epochs);  // pinned at the old epoch
  catalog.Commit(*db, kTable, 0, kNameCol, a);
  catalog.Commit(*db, kTable, 1, kNameCol, b);

  VersionedDatabase::Stats stats = catalog.stats();
  EXPECT_EQ(stats.folds, 0u);
  EXPECT_GE(stats.fold_retries, 1u);
  EXPECT_EQ(stats.deltas_pending, 2u);
  EXPECT_EQ(db->table(kTable).cell(0, kNameCol), original0);
  // Logical reads never waited on the fold.
  EXPECT_EQ(catalog.LogicalCell(kTable, 0, kNameCol), a);

  // Still pinned: an explicit retry is refused too.
  EXPECT_FALSE(catalog.TryFold(*db));

  reader.Release();
  EXPECT_TRUE(catalog.TryFold(*db));
  stats = catalog.stats();
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(stats.deltas_pending, 0u);
  EXPECT_EQ(stats.deltas_folded, 2u);
  EXPECT_EQ(db->table(kTable).cell(0, kNameCol), a);
  EXPECT_EQ(catalog.head_generation(), 2u);
}

// (d) gauges are pin-free; LogicalCell pins exactly once per read.
TEST(VersionedDatabaseTest, GaugesArePinFreeLogicalReadsPinOnce) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, kNoFold);
  catalog.Commit(*db, kTable, 0, kNameCol, db->table(kTable).cell(1, kNameCol));

  uint64_t pins = epochs.stats().pins;
  for (int i = 0; i < 10; ++i) {
    (void)catalog.head_generation();
    (void)catalog.stats();
  }
  EXPECT_EQ(epochs.stats().pins, pins);

  for (int i = 0; i < 10; ++i) {
    (void)catalog.LogicalCell(kTable, 0, kNameCol);
  }
  EXPECT_EQ(epochs.stats().pins, pins + 10);
}

// (e) an old pinned generation stays readable across later commits, and
// retirements reclaim once the reader is gone.
TEST(VersionedDatabaseTest, PinnedGenerationSurvivesLaterCommits) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, kNoFold);

  Value first = db->table(kTable).cell(1, kNameCol);
  catalog.Commit(*db, kTable, 0, kNameCol, first);

  common::EpochManager::Guard reader(epochs);
  const VersionedDatabase::Generation* pinned = catalog.head();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->number, 1u);

  // Later commits move the head; the pinned snapshot is unaffected.
  catalog.Commit(*db, kTable, 2, kNameCol, db->table(kTable).cell(3, kNameCol));
  catalog.Commit(*db, kTable, 4, kNameCol, db->table(kTable).cell(5, kNameCol));
  EXPECT_EQ(catalog.head_generation(), 3u);
  EXPECT_EQ(pinned->number, 1u);
  const Value* overlay_value = pinned->overlay.Find(kTable, 0, kNameCol);
  ASSERT_NE(overlay_value, nullptr);
  EXPECT_EQ(*overlay_value, first);
  // The staleness of this reader is the commits it cannot see yet.
  EXPECT_EQ(catalog.head_generation() - pinned->number, 2u);

  reader.Release();
  // Superseded generations retire through the epoch manager; with the
  // reader gone the next commit's reclaim pass frees all of them.
  catalog.Commit(*db, kTable, 0, kNameCol, first);
  common::EpochManager::Stats es = epochs.stats();
  EXPECT_GT(es.retired, 0u);
  EXPECT_EQ(es.pending, 0u);
}

// (f) a non-positive cadence clamps to 1: with no reader pinned, every
// commit folds, so nothing stays pending and the overlay never grows.
TEST(VersionedDatabaseTest, ZeroCadenceFoldsEveryCommit) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/0);
  EXPECT_EQ(catalog.fold_every(), 1);

  constexpr int kCommits = 5;
  for (int i = 0; i < kCommits; ++i) {
    catalog.Commit(*db, kTable, i, kNameCol,
                   db->table(kTable).cell(i + 1, kNameCol));
  }
  VersionedDatabase::Stats stats = catalog.stats();
  EXPECT_EQ(stats.generations_published, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(stats.folds, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(stats.fold_retries, 0u);
  EXPECT_EQ(stats.deltas_pending, 0u);
  EXPECT_EQ(stats.deltas_folded, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(catalog.head_generation(), static_cast<uint64_t>(kCommits));
}

// (g) one generation for the whole batch, numbered as per-cell commits
// would number it, and at most one fold however far past the cadence.
TEST(VersionedDatabaseTest, BatchCommitPublishesOneGenerationPerBatch) {
  auto db = Db();
  common::EpochManager epochs;
  VersionedDatabase catalog(db.get(), &epochs, /*fold_every=*/2);
  const Value a = db->table(kTable).cell(3, kNameCol);
  const Value b = db->table(kTable).cell(4, kNameCol);
  const Value c = db->table(kTable).cell(5, kNameCol);

  catalog.Commit(*db, std::span<const CellDelta>{}, 0);
  EXPECT_EQ(catalog.head_generation(), 0u);
  EXPECT_EQ(catalog.stats().generations_published, 0u);

  // Cell 0 is written twice: the later value wins.
  const std::vector<CellDelta> cells = {{kTable, 0, kNameCol, a},
                                        {kTable, 1, kNameCol, b},
                                        {kTable, 0, kNameCol, c},
                                        {kTable, 2, kNameCol, a}};
  {
    // A pinned reader defers the fold, so the batch stays in the overlay.
    common::EpochManager::Guard guard(epochs);
    const VersionedDatabase::Generation* before = catalog.head();
    catalog.Commit(*db, cells, cells.size());
    EXPECT_EQ(catalog.head_generation(), 4u);
    EXPECT_EQ(before->number, 0u);
    VersionedDatabase::Stats stats = catalog.stats();
    EXPECT_EQ(stats.generations_published, 1u);
    EXPECT_EQ(stats.folds, 0u);
    EXPECT_EQ(stats.fold_retries, 1u);
    EXPECT_EQ(stats.deltas_pending, 3u);
  }
  EXPECT_EQ(catalog.LogicalCell(kTable, 0, kNameCol), c);
  EXPECT_EQ(catalog.LogicalCell(kTable, 1, kNameCol), b);
  EXPECT_EQ(catalog.LogicalCell(kTable, 2, kNameCol), a);

  // With no reader pinned, the next batch folds once for all its cells.
  // Its two cells stand for five deltas, so the number advances by five.
  catalog.Commit(*db, std::span<const CellDelta>(cells).first(2), 5);
  VersionedDatabase::Stats stats = catalog.stats();
  EXPECT_EQ(catalog.head_generation(), 9u);
  EXPECT_EQ(stats.generations_published, 2u);
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(stats.deltas_folded, 3u);
  EXPECT_EQ(stats.deltas_pending, 0u);
  EXPECT_EQ(db->table(kTable).cell(0, kNameCol), a);
  EXPECT_EQ(db->table(kTable).cell(1, kNameCol), b);
  EXPECT_EQ(db->table(kTable).cell(2, kNameCol), a);
}

}  // namespace
}  // namespace qp::db
