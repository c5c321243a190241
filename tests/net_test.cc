/**
 * @file
 * Unit tests for the protocol message vocabulary.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "net/message.hh"

using namespace minos::net;
using minos::kv::Timestamp;

TEST(Message, TypeNamesMatchTableI)
{
    EXPECT_EQ(msgTypeName(MsgType::INV), "INV");
    EXPECT_EQ(msgTypeName(MsgType::ACK), "ACK");
    EXPECT_EQ(msgTypeName(MsgType::ACK_C), "ACK_C");
    EXPECT_EQ(msgTypeName(MsgType::ACK_P), "ACK_P");
    EXPECT_EQ(msgTypeName(MsgType::VAL), "VAL");
    EXPECT_EQ(msgTypeName(MsgType::VAL_C), "VAL_C");
    EXPECT_EQ(msgTypeName(MsgType::VAL_P), "VAL_P");
    EXPECT_EQ(msgTypeName(MsgType::INV_SC), "[INV]sc");
    EXPECT_EQ(msgTypeName(MsgType::ACK_C_SC), "[ACK_C]sc");
    EXPECT_EQ(msgTypeName(MsgType::ACK_P_SC), "[ACK_P]sc");
    EXPECT_EQ(msgTypeName(MsgType::VAL_C_SC), "[VAL_C]sc");
    EXPECT_EQ(msgTypeName(MsgType::VAL_P_SC), "[VAL_P]sc");
    EXPECT_EQ(msgTypeName(MsgType::PERSIST_SC), "[PERSIST]sc");
}

TEST(Message, OnlyInvFamilyCarriesData)
{
    EXPECT_TRUE(carriesData(MsgType::INV));
    EXPECT_TRUE(carriesData(MsgType::INV_SC));
    EXPECT_FALSE(carriesData(MsgType::ACK));
    EXPECT_FALSE(carriesData(MsgType::VAL));
    EXPECT_FALSE(carriesData(MsgType::PERSIST_SC));
    EXPECT_FALSE(carriesData(MsgType::ACK_P_SC));
}

TEST(Message, ScopedFamily)
{
    EXPECT_TRUE(isScoped(MsgType::INV_SC));
    EXPECT_TRUE(isScoped(MsgType::ACK_C_SC));
    EXPECT_TRUE(isScoped(MsgType::ACK_P_SC));
    EXPECT_TRUE(isScoped(MsgType::VAL_C_SC));
    EXPECT_TRUE(isScoped(MsgType::VAL_P_SC));
    EXPECT_TRUE(isScoped(MsgType::PERSIST_SC));
    EXPECT_FALSE(isScoped(MsgType::INV));
    EXPECT_FALSE(isScoped(MsgType::ACK_C));
    EXPECT_FALSE(isScoped(MsgType::VAL_P));
}

TEST(Message, FamiliesPartitionTableI)
{
    for (int t = 0; t <= static_cast<int>(MsgType::PERSIST_SC); ++t) {
        const auto type = static_cast<MsgType>(t);
        const std::string_view name = msgTypeName(type);
        const MsgFamily f = familyOf(type);
        SCOPED_TRACE(std::string(name));
        EXPECT_EQ(f == MsgFamily::Inv, carriesData(type));
        EXPECT_EQ(f == MsgFamily::Ack, name.find("ACK") != name.npos);
        EXPECT_EQ(f == MsgFamily::Val, name.find("VAL") != name.npos);
        EXPECT_EQ(f == MsgFamily::PersistSc, type == MsgType::PERSIST_SC);
    }
}

TEST(Message, BuildersSizeDataAndControl)
{
    const Message inv =
        makeInv(MsgType::INV_SC, 2, 77, 123, Timestamp{5, 2}, 9, 1024);
    EXPECT_EQ(inv.type, MsgType::INV_SC);
    EXPECT_EQ(inv.src, 2);
    EXPECT_EQ(inv.dst, -1);
    EXPECT_EQ(inv.key, 77u);
    EXPECT_EQ(inv.value, 123u);
    EXPECT_EQ(inv.tsWr, (Timestamp{5, 2}));
    EXPECT_EQ(inv.scope, 9u);
    EXPECT_EQ(inv.sizeBytes, 1024 + controlMsgBytes);

    const Message val =
        makeVal(MsgType::VAL_C, 1, 77, Timestamp{5, 2}, 0);
    EXPECT_EQ(val.type, MsgType::VAL_C);
    EXPECT_EQ(val.src, 1);
    EXPECT_EQ(val.key, 77u);
    EXPECT_EQ(val.value, 0u);
    EXPECT_EQ(val.sizeBytes, controlMsgBytes);

    const Message p = makePersistSc(3, 40);
    EXPECT_EQ(p.type, MsgType::PERSIST_SC);
    EXPECT_EQ(p.src, 3);
    EXPECT_EQ(p.scope, 40u);
    EXPECT_TRUE(p.tsWr.isNone());
    EXPECT_EQ(p.sizeBytes, controlMsgBytes);
    EXPECT_EQ(txnOf(p), minos::kv::WriteId::ofScope(40));
}

TEST(Message, MakeResponseSwapsEndpoints)
{
    Message inv;
    inv.type = MsgType::INV;
    inv.src = 0;
    inv.dst = 3;
    inv.key = 77;
    inv.tsWr = Timestamp{5, 0};
    inv.value = 123;
    inv.sizeBytes = 1024;
    inv.destMask = 0b1110;
    inv.handleNs = 999;

    Message ack = makeResponse(inv, MsgType::ACK);
    EXPECT_EQ(ack.type, MsgType::ACK);
    EXPECT_EQ(ack.src, 3);
    EXPECT_EQ(ack.dst, 0);
    EXPECT_EQ(ack.key, 77u);
    EXPECT_EQ(ack.tsWr, (Timestamp{5, 0}));
    // Control responses are small and carry no batching/handling state.
    EXPECT_EQ(ack.sizeBytes, controlMsgBytes);
    EXPECT_EQ(ack.destMask, 0u);
    EXPECT_EQ(ack.handleNs, 0);
}
